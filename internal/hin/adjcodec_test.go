package hin

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/hinpriv/dehin/internal/randx"
)

func randomRow(rng *randx.RNG, n int, weighted bool) ([]EntityID, []int32) {
	deg := rng.Intn(min(n, 12) + 1)
	seen := make(map[int32]bool)
	var ids []EntityID
	for len(ids) < deg {
		v := int32(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			ids = append(ids, EntityID(v))
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	ws := make([]int32, len(ids))
	for i := range ws {
		if weighted {
			ws[i] = int32(rng.IntRange(1, 1000))
		} else {
			ws[i] = 1
		}
	}
	return ids, ws
}

func TestAdjRowCodecRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		n := rng.IntRange(1, 500)
		weighted := rng.Intn(2) == 1
		ids, ws := randomRow(rng, n, weighted)
		enc := appendAdjRow(nil, ids, ws, weighted)

		strict := &EdgeBuf{}
		sIDs, sWs, err := decodeAdjRow(enc, weighted, n, strict)
		if err != nil {
			t.Fatalf("strict decode: %v", err)
		}
		fast := &EdgeBuf{}
		fIDs, fWs := decodeAdjRowFast(enc, weighted, fast)
		if fmt.Sprint(sIDs) != fmt.Sprint(ids) || fmt.Sprint(sWs) != fmt.Sprint(ws) {
			t.Fatalf("strict decode (%v,%v), want (%v,%v)", sIDs, sWs, ids, ws)
		}
		if fmt.Sprint(fIDs) != fmt.Sprint(ids) || fmt.Sprint(fWs) != fmt.Sprint(ws) {
			t.Fatalf("fast decode (%v,%v), want (%v,%v)", fIDs, fWs, ids, ws)
		}
		if adjRowDegree(enc) != len(ids) {
			t.Fatalf("adjRowDegree = %d, want %d", adjRowDegree(enc), len(ids))
		}
		// Every strict prefix must error, never succeed or panic.
		for k := 0; k < len(enc); k++ {
			if _, _, err := decodeAdjRow(enc[:k], weighted, n, strict); err == nil {
				t.Fatalf("prefix %d/%d decoded without error", k, len(enc))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjRowCodecErrors(t *testing.T) {
	enc := func(ids []EntityID, ws []int32, weighted bool) []byte {
		return appendAdjRow(nil, ids, ws, weighted)
	}
	cases := []struct {
		name     string
		dat      []byte
		weighted bool
		n        int
		want     error
	}{
		{"empty input", nil, false, 10, errAdjTruncated},
		{"degree exceeds entities", enc([]EntityID{0, 1, 2}, nil, false), false, 2, errAdjDegree},
		{"zero delta", []byte{2, 1, 0}, false, 10, errAdjOrder},
		{"dst out of range", []byte{2, 5, 6}, false, 10, errAdjRange},
		{"delta exceeds entities", []byte{1, 11}, false, 10, errAdjOrder},
		{"missing weight", []byte{1, 1}, true, 10, errAdjTruncated},
		{"zero weight", []byte{1, 1, 0}, true, 10, errAdjWeight},
		{"trailing bytes", append(enc([]EntityID{3}, nil, false), 0xAB), false, 10, errAdjTrailing},
	}
	buf := &EdgeBuf{}
	for _, c := range cases {
		if _, _, err := decodeAdjRow(c.dat, c.weighted, c.n, buf); err != c.want {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// Oversized weight: 1<<31 encoded as uvarint.
	over := []byte{1, 1, 0x80, 0x80, 0x80, 0x80, 0x08}
	if _, _, err := decodeAdjRow(over, true, 10, buf); err != errAdjWeight {
		t.Fatalf("oversized weight: err = %v, want %v", err, errAdjWeight)
	}
}

// FuzzAdjRowCodec drives the strict decoder with arbitrary bytes (it must
// error, never panic) and checks that every successful decode re-encodes
// to a canonical row that decodes to the same values.
func FuzzAdjRowCodec(f *testing.F) {
	f.Add([]byte{}, false, 10)
	f.Add([]byte{0}, false, 10)
	f.Add(appendAdjRow(nil, []EntityID{0, 2, 5}, nil, false), false, 10)
	f.Add(appendAdjRow(nil, []EntityID{1, 3}, []int32{7, maxInt32}, true), true, 10)
	f.Add([]byte{2, 1, 0}, false, 10)
	f.Add([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x08}, false, 1<<30)
	f.Fuzz(func(t *testing.T, dat []byte, weighted bool, n int) {
		if n < 0 || n > 1<<30 {
			n = 1 << 30
		}
		buf := &EdgeBuf{}
		ids, ws, err := decodeAdjRow(dat, weighted, n, buf)
		if err != nil {
			return
		}
		if len(ids) != len(ws) {
			t.Fatalf("decoded %d ids but %d weights", len(ids), len(ws))
		}
		for i := range ids {
			if ids[i] < 0 || int(ids[i]) >= n {
				t.Fatalf("id %d out of range [0,%d)", ids[i], n)
			}
			if i > 0 && ids[i] <= ids[i-1] {
				t.Fatalf("ids not strictly ascending: %v", ids)
			}
			if ws[i] < 1 {
				t.Fatalf("strength %d < 1", ws[i])
			}
			if !weighted && ws[i] != 1 {
				t.Fatalf("unweighted row decoded strength %d", ws[i])
			}
		}
		// Canonical re-encode must round-trip to the same values. (Byte
		// equality is not required: the decoder accepts non-minimal
		// varints the encoder never emits.)
		canon := appendAdjRow(nil, ids, append([]int32(nil), ws...), weighted)
		buf2 := &EdgeBuf{}
		ids2, ws2, err := decodeAdjRow(canon, weighted, n, buf2)
		if err != nil {
			t.Fatalf("re-encoded row failed to decode: %v", err)
		}
		if fmt.Sprint(ids2) != fmt.Sprint(buf.IDs) || fmt.Sprint(ws2) != fmt.Sprint(buf.Ws) {
			t.Fatalf("re-encode round trip mismatch")
		}
		// The fast decoder must agree on valid input.
		fIDs, fWs := decodeAdjRowFast(dat, weighted, &EdgeBuf{})
		if fmt.Sprint(fIDs) != fmt.Sprint(ids2) || fmt.Sprint(fWs) != fmt.Sprint(ws2) {
			t.Fatalf("fast decoder disagrees with strict decoder")
		}
	})
}
