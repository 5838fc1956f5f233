package fault

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Window is one fault-activation window against a target node. With
// Every == 0 the window opens once at Start for Dur; otherwise it reopens
// every Every from Start onward (Dur must be < Every for the fault to
// ever clear).
type Window struct {
	Node  int      // target node id; AllNodes targets every node
	Start sim.Time // first opening
	Dur   sim.Time // length of each opening
	Every sim.Time // repeat period; 0 = one-shot
}

// AllNodes as a Window.Node targets every node.
const AllNodes = -1

// activeUntil returns the end of the window opening covering t, or 0 if
// the window is closed at t.
func (w Window) activeUntil(t sim.Time) sim.Time {
	if t < w.Start {
		return 0
	}
	if w.Every <= 0 {
		if t < w.Start+w.Dur {
			return w.Start + w.Dur
		}
		return 0
	}
	phase := (t - w.Start) % w.Every
	if phase < w.Dur {
		return t - phase + w.Dur
	}
	return 0
}

// matches reports whether the window targets node.
func (w Window) matches(node int) bool { return w.Node == AllNodes || w.Node == node }

// Jitter adds a bounded uniform extra delay to a fraction of packets.
type Jitter struct {
	Max  sim.Time // maximum extra delivery delay per packet; 0 disables
	Prob float64  // fraction of packets jittered (0, 1]
}

// DistKind selects a noise distribution. Every kind is parameterized by
// its mean, so swapping distributions holds the injected load constant
// and varies only its shape.
type DistKind int

const (
	// DistConst injects exactly the mean every time.
	DistConst DistKind = iota
	// DistUniform draws uniformly from [0, 2*mean].
	DistUniform
	// DistExp draws from an exponential with the given mean (system
	// noise with memoryless arrivals).
	DistExp
	// DistHeavyTail draws from a shifted Pareto with tail index 2 and
	// the given mean — a betaprime-like polynomial tail (finite mean,
	// infinite variance): most draws are small, rare ones are huge.
	// Samples are capped at 1024x the mean so a single draw cannot
	// masquerade as a deadlock.
	DistHeavyTail
)

func (k DistKind) String() string {
	switch k {
	case DistConst:
		return "const"
	case DistUniform:
		return "uniform"
	case DistExp:
		return "exp"
	case DistHeavyTail:
		return "heavytail"
	}
	return fmt.Sprintf("DistKind(%d)", int(k))
}

// heavyTailCap bounds a single DistHeavyTail draw, in units of the mean.
const heavyTailCap = 1024

// Noise is one stochastic noise source: every matching event receives an
// extra delay drawn from the distribution. Host noise dilates compute
// phases on the targeted nodes; network noise delays packet delivery for
// packets whose source or destination matches.
type Noise struct {
	Node int      // target node id; AllNodes targets every node
	Dist DistKind // distribution shape
	Mean sim.Time // mean extra delay per noised event
	Prob float64  // fraction of events noised (0, 1]
}

// matches reports whether the source targets node.
func (n Noise) matches(node int) bool { return n.Node == AllNodes || n.Node == node }

// Delay is a one-shot injected delay for propagation studies (Afzal,
// Hager & Wellein): the targeted node's processor stalls for Dur at its
// first compute-phase boundary at or after At, exactly once.
type Delay struct {
	Node int      // target node id; AllNodes delays every node once
	At   sim.Time // earliest firing time
	Dur  sim.Time // injected stall length
}

// matches reports whether the delay targets node.
func (d Delay) matches(node int) bool { return d.Node == AllNodes || d.Node == node }

// Config is a parsed fault specification. The zero value injects nothing.
type Config struct {
	Jitter    Jitter
	HostNoise []Noise  // per-node compute-phase dilation
	NetNoise  []Noise  // per-packet delivery delay
	Delays    []Delay  // one-shot injected processor delays
	Outages   []Window // link outages: links incident to the node are blocked
	Stalls    []Window // endpoint drain stalls: the node's NI refuses input
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool { return c.FaultsEnabled() || c.NoiseEnabled() }

// FaultsEnabled reports whether the config injects discrete faults —
// jitter, outages, or stalls, the clauses machine.Config.FaultSpec
// carries.
func (c Config) FaultsEnabled() bool {
	return c.Jitter.Max > 0 || len(c.Outages) > 0 || len(c.Stalls) > 0
}

// NoiseEnabled reports whether the config injects stochastic noise or
// one-shot delays — the clauses machine.Config.NoiseSpec carries.
func (c Config) NoiseEnabled() bool {
	return len(c.HostNoise) > 0 || len(c.NetNoise) > 0 || len(c.Delays) > 0
}

// String renders the canonical spec text that Parse accepts. Re-parsing
// the rendering yields an identical Config (spec strings are memo-cache
// keys), and rendering is a fixed point of Parse-then-String.
func (c Config) String() string {
	var parts []string
	if c.Jitter.Max > 0 {
		parts = append(parts, fmt.Sprintf("jitter:max=%s,prob=%g", fmtDur(c.Jitter.Max), c.Jitter.Prob))
	}
	noise := func(kind string, n Noise) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:node=%s,dist=%s,mean=%s", kind, fmtNode(n.Node), n.Dist, fmtDur(n.Mean))
		if n.Prob != 1 {
			fmt.Fprintf(&b, ",prob=%g", n.Prob)
		}
		return b.String()
	}
	for _, n := range c.HostNoise {
		parts = append(parts, noise("hostnoise", n))
	}
	for _, n := range c.NetNoise {
		parts = append(parts, noise("netnoise", n))
	}
	for _, d := range c.Delays {
		parts = append(parts, fmt.Sprintf("delay:node=%s,at=%s,dur=%s", fmtNode(d.Node), fmtDur(d.At), fmtDur(d.Dur)))
	}
	clause := func(kind string, w Window) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:node=%s,start=%s,dur=%s", kind, fmtNode(w.Node), fmtDur(w.Start), fmtDur(w.Dur))
		if w.Every > 0 {
			fmt.Fprintf(&b, ",every=%s", fmtDur(w.Every))
		}
		return b.String()
	}
	for _, w := range c.Outages {
		parts = append(parts, clause("outage", w))
	}
	for _, w := range c.Stalls {
		parts = append(parts, clause("stall", w))
	}
	return strings.Join(parts, ";")
}

func fmtNode(n int) string {
	if n == AllNodes {
		return "*"
	}
	return strconv.Itoa(n)
}

func fmtDur(t sim.Time) string {
	switch {
	case t >= sim.Millisecond && t%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", t/sim.Millisecond)
	case t >= sim.Microsecond && t%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", t/sim.Microsecond)
	case t >= sim.Nanosecond && t%sim.Nanosecond == 0:
		return fmt.Sprintf("%dns", t/sim.Nanosecond)
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Parse reads a fault specification of semicolon-separated clauses:
//
//	jitter:max=<dur>,prob=<float>
//	hostnoise:node=<id|*>,dist=<const|uniform|exp|heavytail>,mean=<dur>[,prob=<float>]
//	netnoise:node=<id|*>,dist=<const|uniform|exp|heavytail>,mean=<dur>[,prob=<float>]
//	delay:node=<id|*>,at=<dur>,dur=<dur>
//	outage:node=<id|*>,start=<dur>,dur=<dur>[,every=<dur>]
//	stall:node=<id|*>,start=<dur>,dur=<dur>[,every=<dur>]
//
// Durations take a ps/ns/us/ms suffix (e.g. 300ns, 40us). A node of "*"
// (or -1) targets every node. Whitespace around clauses is ignored.
// Discrete-fault clauses (jitter, outage, stall) belong in
// machine.Config.FaultSpec; noise clauses (hostnoise, netnoise, delay)
// belong in machine.Config.NoiseSpec, which carries its own seed.
func Parse(spec string) (Config, error) {
	var c Config
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return Config{}, fmt.Errorf("fault: clause %q: want kind:key=val,...", clause)
		}
		kv, err := parseKVs(rest)
		if err != nil {
			return Config{}, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		switch kind {
		case "jitter":
			j, err := parseJitter(kv)
			if err != nil {
				return Config{}, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			if c.Jitter.Max > 0 {
				return Config{}, fmt.Errorf("fault: duplicate jitter clause %q", clause)
			}
			c.Jitter = j
		case "hostnoise", "netnoise":
			n, err := parseNoise(kv)
			if err != nil {
				return Config{}, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			if kind == "hostnoise" {
				c.HostNoise = append(c.HostNoise, n)
			} else {
				c.NetNoise = append(c.NetNoise, n)
			}
		case "delay":
			d, err := parseDelay(kv)
			if err != nil {
				return Config{}, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			c.Delays = append(c.Delays, d)
		case "outage", "stall":
			w, err := parseWindow(kv)
			if err != nil {
				return Config{}, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
			if kind == "outage" {
				c.Outages = append(c.Outages, w)
			} else {
				c.Stalls = append(c.Stalls, w)
			}
		default:
			return Config{}, fmt.Errorf("fault: unknown clause kind %q (want jitter, hostnoise, netnoise, delay, outage, or stall)", kind)
		}
	}
	return c, nil
}

func parseKVs(s string) (map[string]string, error) {
	kv := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad key=value pair %q", pair)
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

func parseJitter(kv map[string]string) (Jitter, error) {
	var j Jitter
	for k, v := range kv {
		switch k {
		case "max":
			d, err := ParseDuration(v)
			if err != nil {
				return Jitter{}, err
			}
			j.Max = d
		case "prob":
			p, err := parseProb(v)
			if err != nil {
				return Jitter{}, err
			}
			j.Prob = p
		default:
			return Jitter{}, fmt.Errorf("unknown jitter key %q", k)
		}
	}
	if j.Max <= 0 {
		return Jitter{}, fmt.Errorf("jitter needs max=<dur> > 0")
	}
	if j.Prob == 0 {
		j.Prob = 1
	}
	return j, nil
}

// parseProb rejects NaN explicitly: NaN slips past range comparisons and
// would render as "NaN", breaking the Parse/String fixed point.
func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil || p != p || p <= 0 || p > 1 {
		return 0, fmt.Errorf("bad prob %q (want 0 < prob <= 1)", v)
	}
	return p, nil
}

func parseNoise(kv map[string]string) (Noise, error) {
	n := Noise{Node: AllNodes, Dist: -1}
	for k, v := range kv {
		switch k {
		case "node":
			if v == "*" || v == "-1" {
				n.Node = AllNodes
				continue
			}
			id, err := strconv.Atoi(v)
			if err != nil || id < 0 {
				return Noise{}, fmt.Errorf("bad node %q", v)
			}
			n.Node = id
		case "dist":
			switch v {
			case "const":
				n.Dist = DistConst
			case "uniform":
				n.Dist = DistUniform
			case "exp":
				n.Dist = DistExp
			case "heavytail":
				n.Dist = DistHeavyTail
			default:
				return Noise{}, fmt.Errorf("bad dist %q (want const, uniform, exp, or heavytail)", v)
			}
		case "mean":
			d, err := ParseDuration(v)
			if err != nil {
				return Noise{}, err
			}
			n.Mean = d
		case "prob":
			p, err := parseProb(v)
			if err != nil {
				return Noise{}, err
			}
			n.Prob = p
		default:
			return Noise{}, fmt.Errorf("unknown noise key %q", k)
		}
	}
	if n.Dist < 0 {
		return Noise{}, fmt.Errorf("noise needs dist=<const|uniform|exp|heavytail>")
	}
	if n.Mean <= 0 {
		return Noise{}, fmt.Errorf("noise needs mean=<dur> > 0")
	}
	if n.Prob == 0 {
		n.Prob = 1
	}
	return n, nil
}

func parseDelay(kv map[string]string) (Delay, error) {
	d := Delay{Node: AllNodes}
	sawNode := false
	for k, v := range kv {
		switch k {
		case "node":
			sawNode = true
			if v == "*" || v == "-1" {
				d.Node = AllNodes
				continue
			}
			id, err := strconv.Atoi(v)
			if err != nil || id < 0 {
				return Delay{}, fmt.Errorf("bad node %q", v)
			}
			d.Node = id
		case "at", "dur":
			t, err := ParseDuration(v)
			if err != nil {
				return Delay{}, err
			}
			if k == "at" {
				d.At = t
			} else {
				d.Dur = t
			}
		default:
			return Delay{}, fmt.Errorf("unknown delay key %q", k)
		}
	}
	if !sawNode {
		return Delay{}, fmt.Errorf("delay needs node=<id|*>")
	}
	if d.Dur <= 0 {
		return Delay{}, fmt.Errorf("delay needs dur=<dur> > 0")
	}
	return d, nil
}

func parseWindow(kv map[string]string) (Window, error) {
	w := Window{Node: AllNodes}
	sawNode := false
	for k, v := range kv {
		switch k {
		case "node":
			sawNode = true
			if v == "*" || v == "-1" {
				w.Node = AllNodes
				continue
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Window{}, fmt.Errorf("bad node %q", v)
			}
			w.Node = n
		case "start", "dur", "every":
			d, err := ParseDuration(v)
			if err != nil {
				return Window{}, err
			}
			switch k {
			case "start":
				w.Start = d
			case "dur":
				w.Dur = d
			case "every":
				w.Every = d
			}
		default:
			return Window{}, fmt.Errorf("unknown window key %q", k)
		}
	}
	if !sawNode {
		return Window{}, fmt.Errorf("window needs node=<id|*>")
	}
	if w.Dur <= 0 {
		return Window{}, fmt.Errorf("window needs dur=<dur> > 0")
	}
	if w.Every > 0 && w.Dur >= w.Every {
		return Window{}, fmt.Errorf("repeating window never closes: dur %v >= every %v", w.Dur, w.Every)
	}
	return w, nil
}

// ParseDuration reads a simulated duration with a ps/ns/us/ms suffix.
func ParseDuration(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		scale  sim.Time
	}{
		{"ms", sim.Millisecond}, {"us", sim.Microsecond}, {"ns", sim.Nanosecond}, {"ps", sim.Picosecond},
	}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			//lint:allow simlint/intmath spec-parse-time overflow bound; result is latched as integer Time
			if err != nil || f < 0 || f >= float64(math.MaxInt64)/float64(u.scale) {
				return 0, fmt.Errorf("bad duration %q", s)
			}
			//lint:allow simlint/intmath spec-parse-time unit conversion; result is latched as integer Time
			return sim.Time(f * float64(u.scale)), nil
		}
	}
	return 0, fmt.Errorf("bad duration %q (want e.g. 300ns, 40us)", s)
}

// Stats counts faults actually injected, so tests and reports can confirm
// the schedule fired.
type Stats struct {
	Jittered      int64 // packets given extra delivery delay
	OutageDelays  int64 // link reservations pushed past an outage window
	StallRefusals int64 // endpoint deliveries refused during a stall window

	HostNoiseSamples int64 // compute phases dilated by host noise
	HostNoisePs      int64 // total host-noise dilation injected, in ps
	NetNoiseSamples  int64 // packets delayed by network noise
	NetNoisePs       int64 // total network-noise delay injected, in ps
	DelaysFired      int64 // one-shot injected delays that fired
	DelayPs          int64 // total one-shot delay injected, in ps
}

// Samples is the total number of stochastic noise draws that injected
// time (host + net + one-shot delays).
func (s Stats) Samples() int64 { return s.HostNoiseSamples + s.NetNoiseSamples + s.DelaysFired }

// InjectedPs is the total simulated time injected by noise, in ps.
func (s Stats) InjectedPs() int64 { return s.HostNoisePs + s.NetNoisePs + s.DelayPs }

// Injector is the live fault source attached to one simulated machine.
// It is not safe for concurrent use; the simulator is single-threaded.
type Injector struct {
	cfg Config
	rng uint64

	// Noise state. Each node gets its own host-noise stream (seeded from
	// the injector seed mixed with the node id) so one node's compute
	// pattern cannot perturb another's draws; network noise shares one
	// stream consumed in delivery order.
	netRng uint64
	seed   uint64
	nodes  []nodeNoise

	stats Stats
}

// nodeNoise is one node's private noise state.
type nodeNoise struct {
	init       bool
	rng        uint64
	delayFired []bool // parallel to cfg.Delays; one-shot latches
}

// NewInjector builds an injector for cfg with the given schedule seed.
func NewInjector(cfg Config, seed uint64) *Injector {
	return &Injector{
		cfg:    cfg,
		rng:    splitmix64Init(seed),
		netRng: splitmix64Init(mix64(seed, 0x6e6574)), // "net"
		seed:   seed,
	}
}

// node returns the lazily-initialized state for one node.
func (in *Injector) node(id int) *nodeNoise {
	if id >= len(in.nodes) {
		grown := make([]nodeNoise, id+1)
		copy(grown, in.nodes)
		in.nodes = grown
	}
	st := &in.nodes[id]
	if !st.init {
		st.init = true
		st.rng = splitmix64Init(mix64(in.seed, uint64(id)))
		st.delayFired = make([]bool, len(in.cfg.Delays))
	}
	return st
}

// Config returns the injector's fault configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns counts of faults injected so far.
func (in *Injector) Stats() Stats { return in.stats }

// splitmix64: tiny, well-mixed, and stable across Go versions (unlike
// math/rand's unexported algorithms), which keeps fault schedules
// reproducible forever.
func splitmix64Init(seed uint64) uint64 { return seed + 0x9e3779b97f4a7c15 }

// next advances one splitmix64 stream and returns the next 64-bit draw.
func next(rng *uint64) uint64 {
	*rng += 0x9e3779b97f4a7c15
	z := *rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix64 derives an independent stream seed from a base seed and a salt by
// running the salted base through one splitmix64 output step.
func mix64(seed, salt uint64) uint64 {
	z := seed ^ (salt+1)*0x9e3779b97f4a7c15
	return next(&z)
}

func (in *Injector) next() uint64 { return next(&in.rng) }

// gate reports whether an event with the given probability fires, drawing
// one value from the stream iff prob < 1 (prob == 1 consumes nothing, so
// the common fully-noised case draws exactly one sample per event).
func gate(rng *uint64, prob float64) bool {
	if prob >= 1 {
		return true
	}
	//lint:allow simlint/intmath 53-bit mantissa divided by a power of two is exact; the compare is bit-identical on every IEEE-754 host
	return float64(next(rng)>>11)/(1<<53) < prob
}

// isqrt is the integer square root (floor) by Newton's method.
func isqrt(v uint64) uint64 {
	if v < 2 {
		return v
	}
	x := uint64(1) << ((bits.Len64(v) + 1) / 2)
	for {
		y := (x + v/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

// sampleDist draws one value from the distribution using only integer
// arithmetic on the splitmix64 stream, so samples are bit-identical on
// every platform and Go version. Every kind has expectation mean.
func sampleDist(rng *uint64, kind DistKind, mean sim.Time) sim.Time {
	switch kind {
	case DistConst:
		return mean
	case DistUniform:
		// Uniform on [0, 2*mean]: scale a 64-bit draw by the range width
		// via the high word of the 128-bit product (unbiased to ~2^-64).
		hi, _ := bits.Mul64(next(rng), uint64(2*mean)+1)
		return sim.Time(hi)
	case DistExp:
		// Von Neumann's comparison method: exponential variates from
		// uniform draws and comparisons alone, no logarithms. Generate
		// runs u1 > u2 > ... > uk; a run of odd length k accepts n + u1
		// (in units of the mean) where n counts rejected rounds.
		n := uint64(0)
		for {
			u1 := next(rng)
			prev, k := u1, 1
			for {
				u := next(rng)
				if u >= prev {
					break
				}
				prev = u
				k++
			}
			if k&1 == 1 {
				hi, _ := bits.Mul64(u1, uint64(mean))
				return sim.Time(n*uint64(mean) + hi)
			}
			n++
		}
	case DistHeavyTail:
		// Shifted Pareto with tail index 2: X = mean*(1/sqrt(U) - 1) has
		// E[X] = mean, P(X > x) ~ (mean/x)^2 — a betaprime-like
		// polynomial tail with finite mean and infinite variance.
		// 1/sqrt(U) is computed as 2^32/isqrt(U); draws are capped at
		// heavyTailCap*mean (which also keeps Div64 in range).
		u := next(rng) | 1
		s := isqrt(u)
		if s < (1<<32)/(heavyTailCap+1) {
			return heavyTailCap * mean
		}
		hi, lo := bits.Mul64(uint64(mean), 1<<32)
		q, _ := bits.Div64(hi, lo, s)
		x := sim.Time(q) - mean
		if x < 0 {
			x = 0
		}
		if x > heavyTailCap*mean {
			x = heavyTailCap * mean
		}
		return x
	}
	return 0
}

// ComputeDilation returns the extra stall to insert at a compute-phase
// boundary on node at time now: host-noise dilation plus any one-shot
// injected delay whose firing time has arrived. It consumes per-node
// deterministic stream state, so callers must invoke it exactly once per
// compute phase, in that node's program order.
func (in *Injector) ComputeDilation(nodeID int, now sim.Time) sim.Time {
	if len(in.cfg.HostNoise) == 0 && len(in.cfg.Delays) == 0 {
		return 0
	}
	st := in.node(nodeID)
	var total sim.Time
	for _, n := range in.cfg.HostNoise {
		if !n.matches(nodeID) || !gate(&st.rng, n.Prob) {
			continue
		}
		d := sampleDist(&st.rng, n.Dist, n.Mean)
		if d > 0 {
			in.stats.HostNoiseSamples++
			in.stats.HostNoisePs += int64(d)
			total += d
		}
	}
	for i, dl := range in.cfg.Delays {
		if st.delayFired[i] || !dl.matches(nodeID) || now < dl.At {
			continue
		}
		st.delayFired[i] = true
		in.stats.DelaysFired++
		in.stats.DelayPs += int64(dl.Dur)
		total += dl.Dur
	}
	return total
}

// PacketDelay returns the extra delivery delay network noise adds to one
// packet from src to dst. It consumes the shared network stream, so
// callers must invoke it exactly once per packet, in delivery order.
func (in *Injector) PacketDelay(src, dst int) sim.Time {
	var total sim.Time
	for _, n := range in.cfg.NetNoise {
		if (!n.matches(src) && !n.matches(dst)) || !gate(&in.netRng, n.Prob) {
			continue
		}
		d := sampleDist(&in.netRng, n.Dist, n.Mean)
		if d > 0 {
			in.stats.NetNoiseSamples++
			in.stats.NetNoisePs += int64(d)
			total += d
		}
	}
	return total
}

// PacketJitter returns the extra delivery delay for the next packet
// (possibly zero). It consumes deterministic schedule state, so callers
// must invoke it exactly once per packet, in dispatch order.
func (in *Injector) PacketJitter() sim.Time {
	j := in.cfg.Jitter
	if j.Max <= 0 {
		return 0
	}
	r := in.next()
	//lint:allow simlint/intmath 53-bit mantissa divided by a power of two is exact; the compare is bit-identical on every IEEE-754 host
	if j.Prob < 1 && float64(r>>11)/(1<<53) >= j.Prob {
		return 0
	}
	d := sim.Time(in.next() % uint64(j.Max+1))
	if d > 0 {
		in.stats.Jittered++
	}
	return d
}

// LinkBlockedUntil reports when a mesh link joining nodes a and b becomes
// usable, given a desired reservation at time t: the end of the covering
// outage window, or 0 if no outage applies.
func (in *Injector) LinkBlockedUntil(a, b int, t sim.Time) sim.Time {
	var until sim.Time
	for _, w := range in.cfg.Outages {
		if !w.matches(a) && !w.matches(b) {
			continue
		}
		if u := w.activeUntil(t); u > until {
			until = u
		}
	}
	if until > t {
		in.stats.OutageDelays++
		return until
	}
	return 0
}

// DrainStalledUntil reports when node's endpoint resumes draining input,
// or 0 if it is not stalled at time t.
func (in *Injector) DrainStalledUntil(node int, t sim.Time) sim.Time {
	var until sim.Time
	for _, w := range in.cfg.Stalls {
		if !w.matches(node) {
			continue
		}
		if u := w.activeUntil(t); u > until {
			until = u
		}
	}
	if until > t {
		in.stats.StallRefusals++
		return until
	}
	return 0
}

// Schedule tabulates, for documentation and debugging, the first openings
// of every window (up to max entries), in time order.
func (c Config) Schedule(max int) []string {
	type opening struct {
		at   sim.Time
		desc string
	}
	var all []opening
	add := func(kind string, w Window) {
		all = append(all, opening{w.Start, fmt.Sprintf("%s node=%s [%v, %v)", kind, fmtNode(w.Node), w.Start, w.Start+w.Dur)})
	}
	for _, w := range c.Outages {
		add("outage", w)
	}
	for _, w := range c.Stalls {
		add("stall", w)
	}
	for _, d := range c.Delays {
		all = append(all, opening{d.At, fmt.Sprintf("delay node=%s at=%v dur=%v", fmtNode(d.Node), d.At, d.Dur)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	if len(all) > max {
		all = all[:max]
	}
	out := make([]string, len(all))
	for i, o := range all {
		out[i] = o.desc
	}
	return out
}
