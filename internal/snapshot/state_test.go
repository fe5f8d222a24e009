package snapshot

import (
	"reflect"
	"strconv"
	"testing"

	"hwgc/internal/machine"
)

// fullConfig turns on every part of the machine that carries snapshot
// state: the header cache, strides, DRAM banks, NUMA domains, the cache
// model and the write-barrier mutator.
var fullConfig = machine.Config{
	Cores:            2,
	HeaderCacheLines: 16,
	StrideWords:      8,
	MemBanks:         2,
	NUMADomains:      2,
	L1Sets:           4,
	MutatorOps:       1 << 40,
	BarrierMode:      machine.BarrierSATB,
}

// validStrings lists the valid values of each string-typed field, so a
// changed enum still decodes.
var validStrings = map[reflect.Type][]string{
	reflect.TypeOf(machine.BarrierMode("")): {
		string(machine.BarrierNone), string(machine.BarrierSATB), string(machine.BarrierIncUpdate),
	},
	reflect.TypeOf(machine.NUMAPlacement("")): {
		string(machine.PlacementNaive), string(machine.PlacementLocal),
	},
}

// TestEncodeDecodeEveryField changes one leaf field of a captured state at a
// time — every field of Config, Heap, Mem, Sync, each core, the FIFO, the
// header cache, the stride table and the mutator — and requires
// Encode→Decode to carry the change. A field the codec drops fails by its
// path even when it is zero at the captured cycle. Empty slices get one
// element first, so their element fields are reached too.
func TestEncodeDecodeEveryField(t *testing.T) {
	st := captureState(t, "jlisp", fullConfig, 200)
	leaves := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			walk(v.Elem(), path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"["+strconv.Itoa(i)+"]")
			}
		case reflect.Slice:
			if v.Len() == 0 {
				v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			}
			walk(v.Index(0), path+"[0]")
			if last := v.Len() - 1; last > 0 {
				walk(v.Index(last), path+"["+strconv.Itoa(last)+"]")
			}
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.String:
			leaves++
			checkLeaf(t, st, v, path)
		default:
			t.Fatalf("%s: no rule to change a %s field", path, v.Kind())
		}
	}
	walk(reflect.ValueOf(st).Elem(), "State")
	if leaves < 200 {
		t.Fatalf("walked only %d leaf fields", leaves)
	}
}

// checkLeaf sets the leaf v of st to another valid value, requires the
// encoded and decoded state to equal st, and puts the old value back.
func checkLeaf(t *testing.T, st *machine.State, v reflect.Value, path string) {
	t.Helper()
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		valid, ok := validStrings[v.Type()]
		if !ok {
			t.Fatalf("%s: no valid values listed for %s", path, v.Type())
		}
		for _, s := range valid {
			if s != v.String() {
				v.SetString(s)
				break
			}
		}
	}
	got, err := Decode(Encode(st))
	if err != nil {
		t.Errorf("%s changed: decode: %v", path, err)
	} else if !reflect.DeepEqual(st, got) {
		t.Errorf("%s changed: round trip lost it: %v", path, Diff(st, got))
	}
	v.Set(old)
}

// TestRestoreNoAliasing checks that a State and the machines built from it
// share no storage. Restoring one State twice and running the first
// machine to completion leaves the State as it was, and the second machine
// then finishes with the same Stats and heap image. Stepping the machine a
// Snapshot came from leaves the Snapshot's State as it was.
func TestRestoreNoAliasing(t *testing.T) {
	for i, cfg := range []machine.Config{{Cores: 4}, fullConfig} {
		orig := startCollect(t, "jlisp", cfg, 200)
		st, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decode(Encode(st))
		if err != nil {
			t.Fatal(err)
		}
		first, err := machine.RestoreMachine(st)
		if err != nil {
			t.Fatal(err)
		}
		second, err := machine.RestoreMachine(st)
		if err != nil {
			t.Fatal(err)
		}
		stats1, err := first.Resume()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("config %d: running a restored machine changed its State: %v", i, Diff(want, st))
		}
		stats2, err := second.Resume()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stats1, stats2) {
			t.Fatalf("config %d: two restores of one State diverge:\n%+v\n%+v", i, stats1, stats2)
		}
		if !reflect.DeepEqual(first.Heap().Mem(), second.Heap().Mem()) {
			t.Fatalf("config %d: two restores of one State end with different heap images", i)
		}
		if _, err := orig.Resume(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("config %d: stepping the machine changed its Snapshot: %v", i, Diff(want, st))
		}
	}
}
