package mem

// Params configures the memory system. All cycle counts are processor
// cycles.
type Params struct {
	LineWords       int // words (8 bytes each) per cache line
	CacheLines      int // direct-mapped lines per node
	PrefetchEntries int // prefetch buffer entries per node

	HitCycles          int64 // charged (as compute) on a cache hit
	LocalMissCycles    int64 // local DRAM fill, no directory conflict
	ReqCycles          int64 // requestor-side issue of a remote request
	HomeOccCycles      int64 // home controller latency per protocol op
	CtlServiceCycles   int64 // controller initiation interval (pipelined)
	DRAMCycles         int64 // DRAM access at the home
	FillCycles         int64 // requestor-side cache fill on reply
	PrefetchMoveCycles int64 // moving a line from prefetch buffer to cache

	HWPointers      int   // directory pointers tracked in hardware
	LimitLESSCycles int64 // software-extension penalty beyond HWPointers
	// LimitLESSPerSharerCycles is the additional software cost per
	// sharer invalidated during an overflowed write (the paper's
	// 707-cycle software write vs its 425-cycle software read).
	LimitLESSPerSharerCycles int64

	HdrBytes  int // protocol message header size
	LineBytes int // cache line transfer payload size

	// Consistency selects SC (Alewife, the default) or RC (write-buffered
	// release consistency, the Section 2 latency-tolerance extension).
	Consistency Consistency
	// WriteBufferDepth bounds outstanding buffered stores under RC.
	WriteBufferDepth int

	// Protocol selects invalidation (Alewife/LimitLESS, the default) or a
	// write-through update protocol for plain stores to shared lines.
	// The paper's Section 5.1 volume argument ("at least four messages"
	// per produced value) is specific to invalidation protocols; the
	// update variant exists as an ablation of that claim. Atomic
	// operations always use exclusivity regardless of this setting.
	Protocol Protocol
}

// Protocol selects the coherence write policy for shared lines.
type Protocol int

const (
	// ProtocolInvalidate is the standard invalidation protocol.
	ProtocolInvalidate Protocol = iota
	// ProtocolUpdate pushes written data to sharers, which keep their
	// copies (readers hit; every store to a shared line is a round trip).
	ProtocolUpdate
)

func (p Protocol) String() string {
	if p == ProtocolUpdate {
		return "update"
	}
	return "invalidate"
}

// DefaultParams returns parameters calibrated to the paper's Alewife:
// 64KB direct-mapped cache with 16-byte lines, LimitLESS-5, and protocol
// occupancies tuned so the Figure 3 microbenchmarks land near the
// published penalties.
func DefaultParams() Params {
	return Params{
		LineWords:       2,
		CacheLines:      4096, // 64KB / 16B
		PrefetchEntries: 16,

		HitCycles:          1,
		LocalMissCycles:    11,
		ReqCycles:          4,
		HomeOccCycles:      7,
		CtlServiceCycles:   3,
		DRAMCycles:         6,
		FillCycles:         3,
		PrefetchMoveCycles: 3,

		HWPointers:               5,
		LimitLESSCycles:          380,
		LimitLESSPerSharerCycles: 40,

		HdrBytes:  8,
		LineBytes: 16,

		Consistency:      SC,
		WriteBufferDepth: 8,
	}
}
