package idlist

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeltaRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{1},
		{1, 5, 6, 7},
		{1, 5, 6, 10},
		{100, 2, 300, 1}, // non-monotone (negative deltas)
		{0},
		{1 << 40, 1<<40 + 1},
	}
	for _, ids := range cases {
		enc := EncodeDelta(nil, ids)
		dec, err := DecodeDelta(nil, enc)
		if err != nil {
			t.Fatalf("DecodeDelta(%v): %v", ids, err)
		}
		if len(dec) != len(ids) {
			t.Fatalf("round trip %v -> %v", ids, dec)
		}
		for i := range ids {
			if dec[i] != ids[i] {
				t.Fatalf("round trip %v -> %v", ids, dec)
			}
		}
	}
}

func TestDeltaRoundTripQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		ids := make([]int64, len(raw))
		for i, r := range raw {
			ids[i] = int64(r)
		}
		enc := EncodeDelta(nil, ids)
		dec, err := DecodeDelta(nil, enc)
		if err != nil || len(dec) != len(ids) {
			return false
		}
		for i := range ids {
			if dec[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDeltaAt(t *testing.T) {
	ids := []int64{1, 5, 6, 7, 42}
	enc := EncodeDelta(nil, ids)
	for i, want := range ids {
		got, err := DecodeDeltaAt(enc, i)
		if err != nil {
			t.Fatalf("DecodeDeltaAt(%d): %v", i, err)
		}
		if got != want {
			t.Fatalf("DecodeDeltaAt(%d) = %d, want %d", i, got, want)
		}
	}
	if _, err := DecodeDeltaAt(enc, len(ids)); err == nil {
		t.Fatalf("out-of-range index: want error")
	}
}

func TestLen(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i * 3)
		}
		enc := EncodeDelta(nil, ids)
		got, err := Len(enc)
		if err != nil || got != n {
			t.Fatalf("Len = %d, %v; want %d", got, err, n)
		}
	}
}

// TestDecodeDeltaInto checks the pre-sized decode agrees with DecodeDelta,
// preserves any existing dst prefix, and reuses a recycled buffer without
// further allocation.
func TestDecodeDeltaInto(t *testing.T) {
	cases := [][]int64{nil, {1}, {1, 5, 6, 7}, {100, 2, 300, 1}, {1 << 40, 1<<40 + 1}}
	for _, ids := range cases {
		enc := EncodeDelta(nil, ids)
		got, err := DecodeDeltaInto(nil, enc)
		if err != nil {
			t.Fatalf("DecodeDeltaInto(%v): %v", ids, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("DecodeDeltaInto(%v) = %v", ids, got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("DecodeDeltaInto(%v) = %v", ids, got)
			}
		}
	}
	// Appends after an existing prefix.
	enc := EncodeDelta(nil, []int64{7, 8})
	got, err := DecodeDeltaInto([]int64{99}, enc)
	if err != nil || len(got) != 3 || got[0] != 99 || got[1] != 7 || got[2] != 8 {
		t.Fatalf("DecodeDeltaInto append = %v, %v", got, err)
	}
	// Steady-state reuse: recycling dst[:0] must not allocate per call.
	ids := []int64{10, 11, 13, 20, 21, 22, 40}
	enc = EncodeDelta(nil, ids)
	buf, err := DecodeDeltaInto(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var e error
		buf, e = DecodeDeltaInto(buf[:0], enc)
		if e != nil {
			t.Fatal(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeDeltaInto allocates %.1f per call", allocs)
	}
	if _, err := DecodeDeltaInto(nil, []byte{0x80}); err == nil {
		t.Fatalf("corrupt DecodeDeltaInto: want error")
	}
}

// TestDecodeDeltaIntoSteadyState checks that one warm call reserves room
// for any list of the same encoded length: a list of multi-byte varints
// warms dst, then a list of as many bytes but one byte per id decodes into
// it without growing it, and alternating the two allocates nothing.
func TestDecodeDeltaIntoSteadyState(t *testing.T) {
	wide := EncodeDelta(nil, []int64{1000, 3000, 1 << 20}) // 2-, 2- and 3-byte varints
	narrow := EncodeDelta(nil, []int64{1, 2, 3, 4, 5, 6, 7})
	if len(wide) != len(narrow) {
		t.Fatalf("encoded lengths %d and %d, want equal", len(wide), len(narrow))
	}
	dst, err := DecodeDeltaInto(nil, wide)
	if err != nil {
		t.Fatal(err)
	}
	warm := cap(dst)
	if dst, err = DecodeDeltaInto(dst[:0], narrow); err != nil {
		t.Fatal(err)
	}
	if len(dst) != 7 || dst[6] != 7 {
		t.Fatalf("DecodeDeltaInto(narrow) = %v", dst)
	}
	if cap(dst) != warm {
		t.Fatalf("decoding a list of the same byte length grew dst: cap %d → %d", warm, cap(dst))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, enc := range [][]byte{wide, narrow} {
			var e error
			if dst, e = DecodeDeltaInto(dst[:0], enc); e != nil {
				t.Fatal(e)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeDeltaInto allocates %.1f per run", allocs)
	}
}

// TestLenMatchesDecode cross-checks the continuation-bit counter against a
// full decode on random inputs.
func TestLenMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = rng.Int63n(1<<44) - (1 << 43)
		}
		enc := EncodeDelta(nil, ids)
		got, err := Len(enc)
		if err != nil {
			t.Fatalf("Len: %v", err)
		}
		dec, err := DecodeDelta(nil, enc)
		if err != nil {
			t.Fatalf("DecodeDelta: %v", err)
		}
		if got != len(dec) {
			t.Fatalf("Len = %d, decode yields %d", got, len(dec))
		}
	}
}

func TestCorruptInput(t *testing.T) {
	// A lone 0x80 is an unterminated varint.
	if _, err := DecodeDelta(nil, []byte{0x80}); err == nil {
		t.Fatalf("corrupt delta: want error")
	}
	if _, err := Len([]byte{0x80}); err == nil {
		t.Fatalf("corrupt len: want error")
	}
	// Overlong varint (11 bytes): rejected by a full decode, so Len must
	// reject it too rather than report a count.
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, err := Len(overlong); err == nil {
		t.Fatalf("overlong varint len: want error")
	}
	// 10-byte varint whose final byte overflows int64: binary.Varint
	// returns n=-10, so Len must reject it too.
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if _, err := DecodeDelta(nil, overflow); err == nil {
		t.Fatalf("overflow varint decode: want error (test premise)")
	}
	if _, err := Len(overflow); err == nil {
		t.Fatalf("overflow varint len: want error")
	}
	if _, err := DecodeDeltaAt([]byte{0x80}, 0); err == nil {
		t.Fatalf("corrupt at: want error")
	}
	if _, err := DecodeRaw(nil, make([]byte, 7)); err == nil {
		t.Fatalf("raw length: want error")
	}
}

func TestRawRoundTrip(t *testing.T) {
	ids := []int64{9, 8, 7, 1 << 50}
	enc := EncodeRaw(nil, ids)
	if len(enc) != 8*len(ids) {
		t.Fatalf("raw size = %d", len(enc))
	}
	dec, err := DecodeRaw(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if dec[i] != ids[i] {
			t.Fatalf("raw round trip %v -> %v", ids, dec)
		}
	}
}

// TestDeltaCompresses demonstrates the Section 4.1 claim: path-correlated id
// lists compress well under differential encoding.
func TestDeltaCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]int64, 12)
	base := int64(1_000_000)
	for i := range ids {
		base += int64(rng.Intn(5) + 1) // parent-child ids are near each other
		ids[i] = base
	}
	delta := EncodeDelta(nil, ids)
	raw := EncodeRaw(nil, ids)
	if len(delta)*2 >= len(raw) {
		t.Fatalf("delta %dB not <50%% of raw %dB", len(delta), len(raw))
	}
}

func TestAppendToExisting(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	enc := EncodeDelta(prefix, []int64{3, 4})
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatalf("EncodeDelta did not append")
	}
	dec, err := DecodeDelta([]int64{99}, enc[2:])
	if err != nil || len(dec) != 3 || dec[0] != 99 || dec[1] != 3 || dec[2] != 4 {
		t.Fatalf("DecodeDelta append = %v, %v", dec, err)
	}
}

// BenchmarkDecodeDeltaInto decodes a synthetic mix of IdLists — a
// multi-byte first id, then offsets of one varint byte with one in five of
// two bytes — into one recycled buffer. It reports ns per id; the mix gives
// direction, not the path indices' traffic.
func BenchmarkDecodeDeltaInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := make([][]byte, 1024)
	ids := 0
	for i := range lists {
		path := []int64{rng.Int63n(100_000)}
		for n := 1 + rng.Intn(7); n > 0; n-- {
			step := 1 + rng.Int63n(63)
			if rng.Intn(5) == 0 {
				step = 64 + rng.Int63n(8000)
			}
			path = append(path, path[len(path)-1]+step)
		}
		lists[i] = EncodeDelta(nil, path)
		ids += len(path)
	}
	var dst []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lists {
			var err error
			if dst, err = DecodeDeltaInto(dst[:0], l); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ids), "ns/id")
}

// TestCompare checks Compare against slices.Compare of the decoded ids on
// random lists — equal heads, proper prefixes, negative deltas and
// multi-byte varints — and bytes.Compare of the raw encodings against the
// same order for non-negative ids. It allocates nothing.
func TestCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	randList := func(head []int64) []int64 {
		ids := slices.Clone(head[:rng.Intn(len(head)+1)])
		for i := rng.Intn(4); i > 0; i-- {
			switch rng.Intn(3) {
			case 0:
				ids = append(ids, rng.Int63n(64))
			case 1:
				ids = append(ids, rng.Int63n(1<<20))
			default:
				ids = append(ids, rng.Int63n(1<<62))
			}
		}
		return ids
	}
	for i := 0; i < 20000; i++ {
		head := randList(nil)
		a, b := randList(head), randList(head)
		want := slices.Compare(a, b)
		if got := Compare(EncodeDelta(nil, a), EncodeDelta(nil, b)); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got := bytes.Compare(EncodeRaw(nil, a), EncodeRaw(nil, b)); got != want {
			t.Fatalf("raw bytes.Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
	x, y := EncodeDelta(nil, []int64{1, 5, 9, 1 << 30}), EncodeDelta(nil, []int64{1, 5, 9, 1<<30 + 1})
	if allocs := testing.AllocsPerRun(100, func() { Compare(x, y) }); allocs != 0 {
		t.Fatalf("Compare allocates %.1f per call", allocs)
	}
}
