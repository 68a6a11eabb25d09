package hin

import (
	"encoding/binary"
	"errors"
)

// Adjacency row codec for the compact CSR backend.
//
// One row (the out- or in-neighborhood of one entity via one link type)
// encodes as:
//
//	uvarint(degree)
//	repeat degree times:
//	    uvarint(delta)          delta = to - prev, prev starts at -1
//	    uvarint(strength)       only for weighted link types
//
// Destinations are sorted strictly ascending, so with prev = -1 every
// delta is >= 1 (the first delta is to[0]+1) and a zero delta always
// signals corruption. Strengths are in [1, 1<<31-1] by Builder
// validation. The loader checks every row once with validateAdjRow, which
// returns errors; the trusting decoder (decodeAdjRowFast) is the hot-path
// form, used only on rows validateAdjRow has accepted.

var (
	errAdjTruncated = errors.New("hin: adjacency row truncated")
	errAdjDegree    = errors.New("hin: adjacency row degree exceeds entity count")
	errAdjOrder     = errors.New("hin: adjacency row destinations not strictly ascending")
	errAdjRange     = errors.New("hin: adjacency row destination out of range")
	errAdjWeight    = errors.New("hin: adjacency row strength out of range")
	errAdjTrailing  = errors.New("hin: adjacency row has trailing bytes")
)

// appendAdjRow appends the encoded row (tos, ws) to dst and returns the
// extended slice. tos must be sorted strictly ascending with every value
// >= 0; for unweighted rows ws is ignored (pass nil).
func appendAdjRow(dst []byte, tos []EntityID, ws []int32, weighted bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tos)))
	prev := int64(-1)
	for i, to := range tos {
		dst = binary.AppendUvarint(dst, uint64(int64(to)-prev))
		prev = int64(to)
		if weighted {
			dst = binary.AppendUvarint(dst, uint64(ws[i]))
		}
	}
	return dst
}

// validateAdjRow strict-checks one encoded row occupying exactly dat
// without materializing destinations, returning the degree. numEntities
// bounds destination ids. Any structural defect - truncation,
// non-ascending order, out-of-range id or strength, trailing bytes -
// returns one of the errAdj sentinels; the function never panics on
// arbitrary input.
func validateAdjRow(dat []byte, weighted bool, numEntities int) (int, error) {
	deg, p := binary.Uvarint(dat)
	if p <= 0 {
		return 0, errAdjTruncated
	}
	if deg > uint64(numEntities) {
		return 0, errAdjDegree
	}
	prev := int64(-1)
	for i := uint64(0); i < deg; i++ {
		delta, n := binary.Uvarint(dat[p:])
		if n <= 0 {
			return 0, errAdjTruncated
		}
		p += n
		if delta == 0 || delta > uint64(numEntities) {
			return 0, errAdjOrder
		}
		to := prev + int64(delta)
		if to >= int64(numEntities) {
			return 0, errAdjRange
		}
		prev = to
		if weighted {
			uw, n := binary.Uvarint(dat[p:])
			if n <= 0 {
				return 0, errAdjTruncated
			}
			p += n
			if uw == 0 || uw > uint64(maxInt32) {
				return 0, errAdjWeight
			}
		}
	}
	if p != len(dat) {
		return 0, errAdjTrailing
	}
	return int(deg), nil
}

// uvarintAt decodes a uvarint from dat starting at p, returning the value
// and the position just past it. The caller guarantees a valid encoding
// (loader-validated data); out-of-range p would panic via bounds checks
// rather than read wild memory.
//
//hin:hot
func uvarintAt(dat []byte, p int) (uint64, int) {
	if b := dat[p]; b < 0x80 {
		return uint64(b), p + 1
	}
	var x uint64
	var s uint
	for {
		b := dat[p]
		p++
		if b < 0x80 {
			return x | uint64(b)<<s, p
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// decodeAdjRowFast decodes a loader-validated row into buf, returning
// views. It trusts the encoding (no error paths) and is the per-query
// decode used by the attack's scratch frames: buf's capacity amortizes to
// the maximum row degree, after which decoding allocates nothing.
//
//hin:hot
func decodeAdjRowFast(dat []byte, weighted bool, buf *EdgeBuf) ([]EntityID, []int32) {
	ids := buf.IDs[:0]
	ws := buf.Ws[:0]
	deg, p := uvarintAt(dat, 0)
	prev := int64(-1)
	if weighted {
		for i := uint64(0); i < deg; i++ {
			delta, np := uvarintAt(dat, p)
			uw, np2 := uvarintAt(dat, np)
			p = np2
			prev += int64(delta)
			ids = append(ids, EntityID(prev))
			ws = append(ws, int32(uw))
		}
	} else {
		for i := uint64(0); i < deg; i++ {
			delta, np := uvarintAt(dat, p)
			p = np
			prev += int64(delta)
			ids = append(ids, EntityID(prev))
			ws = append(ws, 1)
		}
	}
	buf.IDs = ids
	buf.Ws = ws
	return ids, ws
}

// adjRowDegree returns the degree of an encoded row without decoding it.
//
//hin:hot
func adjRowDegree(dat []byte) int {
	deg, _ := uvarintAt(dat, 0)
	return int(deg)
}
