package core

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mesh"
)

// fingerprintBase is a baseline RunConfig whose normalization knobs are
// all active (nonzero cross-traffic, nonempty fault and noise specs), so
// fingerprint collapses nothing and every field perturbation must change
// the key.
func fingerprintBase() RunConfig {
	rc := RunConfig{App: EM3D, Scale: ScaleTiny}
	rc.Machine.ClockMHz = 20
	rc.Machine.CrossTraffic = mesh.CrossTraffic{MsgBytes: 64, BytesPerCycle: 8}
	rc.Machine.FaultSpec = "jitter:p=0.1"
	rc.Machine.FaultSeed = 7
	rc.Machine.NoiseSpec = "hostnoise:node=*,dist=exp,mean=1us"
	rc.Machine.NoiseSeed = 11
	return rc
}

// TestFingerprintCoversAllFields is the runtime twin of the static
// simlint/fingerprint check: it perturbs every leaf field of RunConfig
// (recursively, via reflection) and asserts the memo key changes. A
// newly added config field that fingerprint normalizes away
// unconditionally — silently aliasing distinct runs in the cache —
// fails here even if the analyzer cannot prove it.
func TestFingerprintCoversAllFields(t *testing.T) {
	base := fingerprintBase()
	key := fingerprint(base)
	leaves := leafFields(reflect.TypeOf(base), nil, "")
	if len(leaves) < 10 {
		t.Fatalf("suspiciously few RunConfig leaf fields (%d); reflection walk broken?", len(leaves))
	}
	for _, leaf := range leaves {
		if leaf.path == "Machine.CritEdgeCap" {
			// Fully normalized on this base (CritPath off makes the ring
			// capacity inert); the CritPath-on boundary is covered by
			// TestFingerprintCritEdgeCap.
			continue
		}
		mut := base
		f := reflect.ValueOf(&mut).Elem().FieldByIndex(leaf.index)
		perturb(t, leaf.path, f)
		if fingerprint(mut) == key {
			t.Errorf("perturbing RunConfig.%s does not change the fingerprint: distinct runs would alias one memo entry", leaf.path)
		}
	}
}

// TestFingerprintCritEdgeCap pins the edge-cap normalization: the ring
// capacity is inert — normalized away — without the critical-path
// profiler, and meaningful with it (the cap decides which edges the
// cached recorder and top-edge summary retain), so instrumented runs at
// different caps never alias while incidentally-capped plain runs do.
func TestFingerprintCritEdgeCap(t *testing.T) {
	rc := RunConfig{App: EM3D, Scale: ScaleTiny}
	rc.Machine = machine.DefaultConfig()
	plain := fingerprint(rc)
	rc.Machine.CritEdgeCap = 1 << 17
	if fingerprint(rc) != plain {
		t.Fatal("edge cap without CritPath changes the key; inert configs would simulate repeatedly")
	}
	rc.Machine.CritPath = true
	capped1 := fingerprint(rc)
	if capped1 == plain {
		t.Fatal("CritPath does not change the key; instrumented runs would alias plain ones")
	}
	rc.Machine.CritEdgeCap = 1 << 16
	if fingerprint(rc) == capped1 {
		t.Fatal("edge caps alias one memo entry under CritPath; differently-truncated edge streams would be shared")
	}
}

// TestFingerprintNoise pins the noise normalization: the seed is inert —
// normalized away — without a noise spec, and meaningful with one, so
// distinct noisy runs never alias while incidentally-seeded quiet runs
// always do.
func TestFingerprintNoise(t *testing.T) {
	rc := RunConfig{App: EM3D, Scale: ScaleTiny}
	rc.Machine = machine.DefaultConfig()
	quiet := fingerprint(rc)
	rc.Machine.NoiseSeed = 99
	if fingerprint(rc) != quiet {
		t.Fatal("noise seed without a noise spec changes the key; inert configs would simulate repeatedly")
	}
	rc.Machine.NoiseSpec = "netnoise:node=*,dist=uniform,mean=200ns"
	noisy1 := fingerprint(rc)
	if noisy1 == quiet {
		t.Fatal("noise spec does not change the key; noisy runs would alias quiet ones")
	}
	rc.Machine.NoiseSeed = 100
	if fingerprint(rc) == noisy1 {
		t.Fatal("noise seeds alias one memo entry; a seed sweep would measure one run")
	}
}

// TestRunConfigValueSemantics asserts every field reachable from
// RunConfig is a pure value type: no pointers, slices, maps, channels,
// funcs, or interfaces. Struct equality on the memo key is only
// semantic equality under this property (the static check proves the
// same; this catches kinds it might not see through).
func TestRunConfigValueSemantics(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("RunConfig%s has reference type %s; memo-key equality would compare identity, not content", path, ty)
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("", reflect.TypeOf(RunConfig{}))
}

// leaf is one settable basic-kind field path of a struct type.
type leaf struct {
	path  string
	index []int
}

func leafFields(ty reflect.Type, index []int, path string) []leaf {
	var out []leaf
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		idx := append(append([]int(nil), index...), i)
		p := f.Name
		if path != "" {
			p = path + "." + f.Name
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, idx, p)...)
			continue
		}
		out = append(out, leaf{path: p, index: idx})
	}
	return out
}

// perturb changes f to a different value of its kind.
func perturb(t *testing.T, path string, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 1.5)
	case reflect.String:
		f.SetString(f.String() + "x")
	default:
		t.Fatalf("RunConfig.%s has unhandled kind %s; extend perturb (and check the field keeps value semantics)", path, f.Kind())
	}
}
