package dataset

import "math"

// Cell and row hashing shared by the quality dimensions (distinct-count
// sketches, duplicate detection). The contract is representation
// independence: the same logical cell hashes identically whether it is
// read as a Value (HashValue) or from a ColumnChunk's typed vectors, so
// equal cells hash equal however they were ingested.

// Mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixer. It is NOT cryptographic — it keys no secrets and resists no
// adversaries; it only needs to spread cell payloads uniformly enough for
// bottom-k sketching and duplicate blocking.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nullPayload is the canonical payload of a null cell. An arbitrary odd
// constant no real domain index or float bit pattern is likely to collide
// with after mixing.
const nullPayload = 0x9e3779b97f4a7c15

// HashFloat hashes a float payload, canonicalizing -0 to +0 and every NaN
// bit pattern to one payload so Value.Equal-equal cells hash equal.
func HashFloat(f float64) uint64 {
	if f == 0 {
		f = 0 // collapses -0 into +0
	}
	if math.IsNaN(f) {
		return Mix64(nullPayload ^ 0x5bf0_3635)
	}
	return Mix64(math.Float64bits(f))
}

// hashNomIdx hashes a nominal domain index (-1 ⇒ null).
func hashNomIdx(idx int32) uint64 {
	if idx < 0 {
		return Mix64(nullPayload)
	}
	return Mix64(uint64(idx) + 1)
}

// HashValue hashes one cell value in its canonical payload form.
func HashValue(v Value) uint64 {
	switch {
	case v.IsNull():
		return Mix64(nullPayload)
	case v.IsNominal():
		return hashNomIdx(int32(v.NomIdx()))
	default:
		return HashFloat(v.Float())
	}
}

// colSeed decorrelates the per-column hash streams so identical payloads
// in different columns do not collide in row hashes.
func colSeed(c int) uint64 { return Mix64(uint64(c)*0x9e37_79b9 + 0x85eb_ca6b) }

// HashChunkCell hashes cell (r, c) of a chunk, keyed by column position.
func HashChunkCell(ck *ColumnChunk, r, c int) uint64 {
	col := &ck.cols[c]
	var h uint64
	switch {
	case col.Null(r):
		h = Mix64(nullPayload)
	case col.Nom != nil:
		h = hashNomIdx(col.Nom[r])
	default:
		h = HashFloat(col.Num[r])
	}
	return Mix64(h ^ colSeed(c))
}

// HashChunkRow combines the cell hashes of the listed columns (all
// columns when cols is nil) of chunk row r into one row hash.
func HashChunkRow(ck *ColumnChunk, r int, cols []int) uint64 {
	h := uint64(0x27d4_eb2f_1656_67c5)
	if cols == nil {
		for c := range ck.cols {
			h = Mix64(h ^ HashChunkCell(ck, r, c))
		}
		return h
	}
	for _, c := range cols {
		h = Mix64(h ^ HashChunkCell(ck, r, c))
	}
	return h
}
