package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/machine"
)

// diskCacheSchema versions the on-disk entry layout. Bump it whenever
// the serialized result shape or the meaning of any RunConfig field
// changes: entries with a different schema are ignored, never trusted.
const diskCacheSchema = 6 // 6: the windowed engine's Config knob and Result fields were removed (5: Config gained CritEdgeCap; 4: Result gained an engine-fallback field + CritPath; Config gained CritPath)

// DiskCache persists completed run results across processes, extending
// the Runner's in-memory single-flight memoization. Entries are keyed
// by the canonical RunConfig fingerprint (the same normalization the
// in-memory cache uses, validated by simlint's fingerprint check) and
// carry both a schema version and the full canonical fingerprint text;
// a load only hits when schema, key hash, and fingerprint text all
// match, so corrupt files, hash collisions, and entries written by an
// older RunConfig layout are all treated as misses and re-simulated.
//
// Only successful runs are stored, and only their measurements:
// observability byproducts (Trace, Obs, Spans) are host-side ring
// buffers that are not serialized, so a run served from disk has them
// nil. Figure and CSV generation never read them; per-run timeline
// artifacts are only emitted for executed runs (see Telemetry).
//
// Concurrent use — including by unrelated processes sharing the
// directory — is safe: writes go to a unique temp file first and are
// renamed into place, so readers see either a complete entry or none.
type DiskCache struct {
	dir string
}

// OpenDiskCache opens (creating if needed) a result cache directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: disk cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache directory.
func (dc *DiskCache) Dir() string { return dc.dir }

// diskEntry is the JSON layout of one cached run.
type diskEntry struct {
	Schema      int            `json:"schema"`
	Fingerprint string         `json:"fingerprint"` // canonical RunConfig, %+v rendering
	App         string         `json:"app"`
	Mech        string         `json:"mech"`
	Scale       string         `json:"scale"`
	Result      machine.Result `json:"result"`
}

// path returns the entry file for a canonical (fingerprinted) config.
func (dc *DiskCache) path(key RunConfig) string {
	return filepath.Join(dc.dir, fmt.Sprintf("%s_%s_%s.json", key.App, key.Mech, FingerprintLabel(key)))
}

// canonicalText renders the canonical fingerprint as the collision- and
// staleness-proof validation string stored inside each entry. A new
// RunConfig field changes this rendering, so entries written before the
// field existed stop matching even without a schema bump.
func canonicalText(key RunConfig) string { return fmt.Sprintf("%+v", key) }

// Load returns the cached result for an already-fingerprinted config,
// or ok=false when there is no trustworthy entry (absent, unreadable,
// corrupt, wrong schema, or fingerprint mismatch). Untrustworthy
// entries are ignored, not deleted: a concurrent writer with a newer
// schema may own the file.
func (dc *DiskCache) Load(key RunConfig) (RunResult, bool) {
	data, err := os.ReadFile(dc.path(key))
	if err != nil {
		return RunResult{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return RunResult{}, false
	}
	if e.Schema != diskCacheSchema || e.Fingerprint != canonicalText(key) {
		return RunResult{}, false
	}
	return RunResult{Result: e.Result, App: key.App, Mech: key.Mech}, true
}

// Store persists one successful run. Failures are reported to the
// caller but are safe to ignore: the cache is an accelerator, not a
// store of record.
func (dc *DiskCache) Store(key RunConfig, res RunResult) error {
	e := diskEntry{
		Schema:      diskCacheSchema,
		Fingerprint: canonicalText(key),
		App:         string(key.App),
		Mech:        key.Mech.String(),
		Scale:       key.Scale.String(),
		Result:      res.Result,
	}
	data, err := json.MarshalIndent(&e, "", "\t")
	if err != nil {
		return fmt.Errorf("core: disk cache: %w", err)
	}
	f, err := os.CreateTemp(dc.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("core: disk cache: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(f.Name())
		return fmt.Errorf("core: disk cache: %w", werr)
	}
	if err := os.Rename(f.Name(), dc.path(key)); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("core: disk cache: %w", err)
	}
	return nil
}
