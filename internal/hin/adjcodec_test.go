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

		deg, err := validateAdjRow(enc, weighted, n)
		if err != nil {
			t.Fatalf("validate: %v", err)
		}
		if deg != len(ids) {
			t.Fatalf("validate degree = %d, want %d", deg, len(ids))
		}
		fIDs, fWs := decodeAdjRowFast(enc, weighted, &EdgeBuf{})
		if fmt.Sprint(fIDs) != fmt.Sprint(ids) || fmt.Sprint(fWs) != fmt.Sprint(ws) {
			t.Fatalf("fast decode (%v,%v), want (%v,%v)", fIDs, fWs, ids, ws)
		}
		if adjRowDegree(enc) != len(ids) {
			t.Fatalf("adjRowDegree = %d, want %d", adjRowDegree(enc), len(ids))
		}
		// Every strict prefix must error, never succeed or panic.
		for k := 0; k < len(enc); k++ {
			if _, err := validateAdjRow(enc[:k], weighted, n); err == nil {
				t.Fatalf("prefix %d/%d validated without error", k, len(enc))
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
	for _, c := range cases {
		if _, err := validateAdjRow(c.dat, c.weighted, c.n); err != c.want {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// Oversized weight: 1<<31 encoded as uvarint.
	over := []byte{1, 1, 0x80, 0x80, 0x80, 0x80, 0x08}
	if _, err := validateAdjRow(over, true, 10); err != errAdjWeight {
		t.Fatalf("oversized weight: err = %v, want %v", err, errAdjWeight)
	}
}

// FuzzAdjRowCodec drives the loader's row validator with arbitrary bytes
// (it must error, never panic) and checks that every accepted row decodes
// to in-range, strictly ascending ids with valid strengths, and re-encodes
// to a canonical row that validates and decodes to the same values.
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
		deg, err := validateAdjRow(dat, weighted, n)
		if err != nil {
			return
		}
		ids, ws := decodeAdjRowFast(dat, weighted, &EdgeBuf{})
		if len(ids) != deg || len(ws) != deg || adjRowDegree(dat) != deg {
			t.Fatalf("validated degree %d, but decoded %d ids and %d strengths, adjRowDegree %d",
				deg, len(ids), len(ws), adjRowDegree(dat))
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
		// equality is not required: the validator accepts non-minimal
		// varints the encoder never emits.)
		canon := appendAdjRow(nil, ids, ws, weighted)
		if d2, err := validateAdjRow(canon, weighted, n); err != nil || d2 != deg {
			t.Fatalf("re-encoded row: degree %d, err %v; want %d, nil", d2, err, deg)
		}
		ids2, ws2 := decodeAdjRowFast(canon, weighted, &EdgeBuf{})
		if fmt.Sprint(ids2) != fmt.Sprint(ids) || fmt.Sprint(ws2) != fmt.Sprint(ws) {
			t.Fatalf("re-encode round trip mismatch")
		}
	})
}
