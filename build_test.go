package hwgc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// buildGolden pins, per benchmark and seed, the SHA-256 of the built heap
// (every word of h.Mem() followed by the root slice, little-endian) and of
// the plan's JSON encoding, so any change to the bytes a workload builds
// or encodes fails here. Re-record them only for a deliberate change to a
// workload's graph.
var buildGolden = []struct {
	bench      string
	seed       int64
	heap, plan string
}{
	{"compress", 1,
		"3848379bb7828e902f5362e072eaee68531307ec23e30894ac18a6463b72e3ea",
		"6aadee0fd7dbcc45e556d573155c587101bc2a3228875e0fff282fb41786f262"},
	{"compress", 42,
		"89543495b5fa1e228364e5356e18ec2232336d671499302e796ea334b282a5a3",
		"e3fb68674d0678359d06de57ff77aada052a201a7428bf1dc33a1771a69a278a"},
	{"cup", 1,
		"cf882ff978b5d369e197b4fab861855c1af3082c0ec245c41765b1834313bca9",
		"204e859b52920d1af984e10fbdb589168466c384949fbb800655f21e5ff96b07"},
	{"cup", 42,
		"12487e98a50e811f0aae4019aca4415fe62d9763daccc4f3d7aac50d9716d8b4",
		"4a92701f07542d37fe1d1d68e3e4618099a829fb59bc1f5c806d33a4c661014e"},
	{"db", 1,
		"c756403f8f4b4d9f4b69593551010b28945cbcca87a999ee106f689f2c8259d2",
		"ac0b3607dc6b5e8fe470b3c1eaa1b79922de88d4b729681597f570426702b10b"},
	{"db", 42,
		"c768900ea46c271b299b79952434dbfaa7e8030ce06bb27c76fa1193d8fa4d03",
		"90be61af30ecbc4f7e8641ecd217fcda64d85fb1a2476af4f402c7b8761957c7"},
	{"javac", 1,
		"1e9fa2a33246868f4b1513a578f893051d66bb99a831c6d30cce3032f642f514",
		"328b579b1a0b98d6a8d2c729d4bbfdd9d0bc20a4865037e27efcb5e33bb0e473"},
	{"javac", 42,
		"533f84713720f0e4b3f472f6142a76968e01505deb34c845aac304df1f8fcda1",
		"86d538222872d079b2c726229a07d4e898651b3865d3efc021097f23aa18d7f3"},
	{"javacc", 1,
		"c16d2bb87976b5c0e6de56bf9519c6bba7e339c43d6455f2da4dbb1589cc21c6",
		"a8af8402083d2174d7af8130b9bbb47c358bed629ffc647e5a2d0f76ffdfd997"},
	{"javacc", 42,
		"680aac34b52094d72fc5324de244de7e7afb7de48ea6a460efa2f98a77244c6d",
		"5a0bf101fb4030c6de2c992d4cc12ec5b565aff603c7946bc53335edb6184fe4"},
	{"jflex", 1,
		"5a1e47414c8550589250c1b89cda304c606d5b0726bcff1ef7fd7513f9c4a91b",
		"eb1540bc0cddfb8b1ca13905ce6663307f343d374a1de7107c539375a252fcdc"},
	{"jflex", 42,
		"0943728eb3e31d49a8af782670677faf385e1d6d36e03c26847cd7b73e028b63",
		"72dcd010cfe4f551950dd36ec7c32a18f2d24c47f45f9bf3280f93e4a6b97b78"},
	{"jlisp", 1,
		"1fe21072dff7360c1049be04824dff8ba6e958f81ec45224d3c0a1705838d203",
		"fd3ad602f3441ba1daab9d4a3a980a8c8838eebc59ef80ffccb0d95260d8b287"},
	{"jlisp", 42,
		"542f00491cd869edaa2f9d6fb863f83a960dd400ab13cc780cbaacce9837a8c5",
		"af70fd8f6d331a5fc44d0a9353078fbce209d3d22180eb4711e63514549f5e73"},
	{"search", 1,
		"18f23a1123c4ebd7434f8284b36957e65e863082e83519a11eee3e5a964cff70",
		"1a62083a45509a92444c0a9574eaf7197a75b1441998b08ceff9d80b516942b6"},
	{"search", 42,
		"95f3415469b26448446f7ef7900bc2dead269871292e9653f4cbcc69ed585ef7",
		"ce61f2be29977e6c5a232d1462d27dec2b50ae725f58149c708c9bceb93da941"},
	{"blob", 1,
		"810cec5fe4b10e8dfe7fb5a022c0a424388d58fd19c506ff47c11901cbdf7b05",
		"972be1ac62fed26b64ecbaf8e9a1e7697a7cfb137642da23838f2ecadd178a31"},
	{"blob", 42,
		"45374c043d5e1d43d76783855584eb2b5e61fec70f6386fc434733424d0a9767",
		"a9058f9e53d6a3253731b950fbf3f2b913b1cf1613391d086109050ce6c4414a"},
}

func heapDigest(h *Heap) string {
	d := sha256.New()
	var b [8]byte
	for _, w := range h.Mem() {
		binary.LittleEndian.PutUint64(b[:], w)
		d.Write(b[:])
	}
	for _, r := range h.Roots() {
		binary.LittleEndian.PutUint32(b[:4], r)
		d.Write(b[:4])
	}
	return hex.EncodeToString(d.Sum(nil))
}

func TestBuildOutputGolden(t *testing.T) {
	for _, g := range buildGolden {
		h, err := BuildWorkload(g.bench, 1, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := heapDigest(h); got != g.heap {
			t.Errorf("%s seed %d: heap digest %s, want %s", g.bench, g.seed, got, g.heap)
		}
		spec, err := Workload(g.bench)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePlan(&buf, spec.Plan(1, g.seed)); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != g.plan {
			t.Errorf("%s seed %d: plan JSON digest %s, want %s", g.bench, g.seed, got, g.plan)
		}
	}
}

// TestInlinePlanRequestKeyGolden pins the content key of a request carrying
// a plan built through NewObj, including objects with no pointer slots and
// no data words: those must encode as [] (not null), as they always have.
func TestInlinePlanRequestKeyGolden(t *testing.T) {
	p := &Plan{}
	a := p.NewObj(2, 1)
	b := p.NewObj(0, 3)
	c := p.NewObj(1, 0)
	p.Link(a, 0, b)
	p.Link(a, 1, c)
	p.Link(c, 0, a)
	p.Objs[a].Data[0] = 7
	p.Objs[b].Data[2] = 9
	p.NewObj(0, 0)
	p.AddRoot(a)
	p.AddRoot(-1)
	r := CollectRequest{Plan: p, Config: Config{Cores: 2}}
	if err := r.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	js, err := r.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"Ptrs":[]`)) || !bytes.Contains(js, []byte(`"Data":[]`)) {
		t.Fatalf("empty slot lists do not encode as []: %s", js)
	}
	const want = "5fe5023c51915a326e296ce0d2578db502b64e4499b380a22b52668addd1f35b"
	if got := KeyBytes(js); got != want {
		t.Fatalf("key %s, want %s", got, want)
	}
}

// maxBuildAllocs bounds the heap allocations of one BuildWorkload call. The
// plan's slot lists are carved from a few slabs and its object list is
// sized up front, so the count must not grow with the number of objects.
const maxBuildAllocs = 40

func TestBuildWorkloadAllocations(t *testing.T) {
	for _, scale := range []int{1, 4} {
		n := testing.AllocsPerRun(3, func() {
			if _, err := BuildWorkload("cup", scale, 1); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxBuildAllocs {
			t.Errorf("BuildWorkload(cup, %d) made %v allocations, want at most %d", scale, n, maxBuildAllocs)
		}
	}
}

// TestRunPlanRejectsMalformedPlan checks that a programmatically built plan
// whose slot lists disagree with its declared shape is refused with an
// error rather than realized.
func TestRunPlanRejectsMalformedPlan(t *testing.T) {
	p := &Plan{}
	a := p.NewObj(1, 1)
	p.AddRoot(a)
	p.Objs[a].Data = append(p.Objs[a].Data, 5)
	if _, err := RunPlan("plan", p, Config{}, true); err == nil {
		t.Fatal("RunPlan accepted a plan with more data words than δ")
	}
}
