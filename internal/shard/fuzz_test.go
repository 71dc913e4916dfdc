package shard_test

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/shard"
	"dataaudit/internal/stats"
)

// quisShardFrame encodes what a worker answers for the first 2 000 rows
// of the QUIS fixture.
func quisShardFrame(t testing.TB) []byte {
	m, dirty := quisFixture(t)
	var wire bytes.Buffer
	sw := dataset.NewChunkStreamWriter(&wire)
	ck := dataset.NewColumnChunk(dirty.Schema())
	for lo := 0; lo < 2000; lo += 512 {
		dirty.ChunkInto(ck, lo, min(lo+512, 2000))
		if err := sw.Write(ck); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := shard.ScoreStream(m, dataset.NewChunkStreamReader(&wire), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := shard.EncodeShardResult(&frame, sr); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

// decodeAllocBound is what DecodeShardResult may allocate: wantRows
// reports and a findings arena of at most wantRows × wantAttrs, per
// attribute one dimension with a full sketch and a bitmap's first
// buffer, bitmap growth in proportion to the body, and the read buffer.
func decodeAllocBound(wantRows, wantAttrs, bodyLen int) uint64 {
	perAttr := int(unsafe.Sizeof(audit.AttrDim{})+unsafe.Sizeof(stats.KMV{})) + 8*stats.DefaultKMVSize + 32<<10
	return uint64(wantRows*int(unsafe.Sizeof(audit.RecordReport{})) +
		wantRows*wantAttrs*int(unsafe.Sizeof(audit.Finding{})) +
		wantAttrs*perAttr + 32*bodyLen + 128<<10)
}

// FuzzDecodeShardResult: a worker response either fails to decode or
// decodes to a result that keeps every invariant the coordinator merges
// on (reports that are not empty, on ascending rows inside the shard), re-encodes to the very same bytes, and cost no more memory than
// the shard's size allows, whatever the counts in the body claim.
func FuzzDecodeShardResult(f *testing.F) {
	for _, sr := range shard.WireSeeds() {
		var buf bytes.Buffer
		if err := shard.EncodeShardResult(&buf, sr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(sr.Rows), uint8(sr.Result.NumAttrs))
	}
	f.Add(shard.GapOverflowFrame(), uint16(3), uint8(2))
	m, _ := quisFixture(f)
	f.Add(quisShardFrame(f), uint16(2000), uint8(m.Schema.Len()))

	f.Fuzz(func(t *testing.T, body []byte, rows uint16, attrs uint8) {
		wantRows, wantAttrs := int(rows%4097), int(attrs%33)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sr, err := shard.DecodeShardResult(bytes.NewReader(body), wantRows, wantAttrs)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(wantRows, wantAttrs, len(body)); grew > bound {
			t.Fatalf("decoding %d bytes for %d×%d allocated %d bytes, bound %d", len(body), wantRows, wantAttrs, grew, bound)
		}
		if err != nil {
			return
		}
		res := sr.Result
		if sr.Rows != wantRows || res.Rows != wantRows || len(res.Reports) > wantRows || res.NumAttrs != wantAttrs {
			t.Fatalf("decoded %d/%d rows, %d reports of width %d for %d×%d", sr.Rows, res.Rows, len(res.Reports), res.NumAttrs, wantRows, wantAttrs)
		}
		total := 0
		for i := range res.Reports {
			rep := &res.Reports[i]
			if rep.Row < 0 || rep.Row >= wantRows || i > 0 && rep.Row <= res.Reports[i-1].Row {
				t.Fatalf("report %d carries row %d", i, rep.Row)
			}
			if rep.Empty() {
				t.Fatalf("report %d of row %d is empty", i, rep.Row)
			}
			if len(rep.Findings) > wantAttrs || cap(rep.Findings) != len(rep.Findings) {
				t.Fatalf("report %d: %d findings (cap %d) of %d attributes", i, len(rep.Findings), cap(rep.Findings), wantAttrs)
			}
			total += len(rep.Findings)
			for _, fd := range rep.Findings {
				if fd.Attr < 0 || fd.Attr >= wantAttrs {
					t.Fatalf("report %d: finding names attribute %d of %d", i, fd.Attr, wantAttrs)
				}
			}
			if rep.Best != nil {
				best := -1
				for j := range rep.Findings {
					if rep.Findings[j].ErrorConf == rep.ErrorConf {
						best = j
						break
					}
				}
				if best < 0 || rep.Best != &rep.Findings[best] {
					t.Fatalf("report %d: Best is not its first finding carrying ErrorConf %v", i, rep.ErrorConf)
				}
			}
		}
		if total > wantRows*wantAttrs {
			t.Fatalf("%d findings for %d×%d", total, wantRows, wantAttrs)
		}
		if res.Dims != nil && len(res.Dims) != wantAttrs {
			t.Fatalf("%d dimensions for %d attributes", len(res.Dims), wantAttrs)
		}
		for i := range res.Dims {
			if d := &res.Dims[i]; d.Attr != i || d.Rows != int64(wantRows) || d.Nulls < 0 || d.Nulls > d.Rows {
				t.Fatalf("dimension %d: %+v", i, d)
			}
		}
		var again bytes.Buffer
		if err := shard.EncodeShardResult(&again, sr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("re-encoding gave %d bytes other than the %d decoded", again.Len(), len(body))
		}
	})
}
