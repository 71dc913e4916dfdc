// Package shard scales the audit pipeline across processes: a Coordinator
// splits a batch into shards (contiguous row ranges), streams each shard's
// column chunks to a worker auditd over HTTP, and joins the workers'
// decoded per-shard results into one Result that is gob-byte-identical
// to a single-node audit of the same batch.
//
// The protocol rides the existing auditd surface: workers are plain auditd
// processes, and a coordinator and its workers must run the same release
// (the result frame is versioned, and a body of another version is an
// error). Two worker-side routes carry it —
//
//	POST /v1/models/{name}/audit/shard?version=V&createdAt=T
//	    body: dataset chunk stream (Content-Type application/x-dataaudit-chunks)
//	    resp: ShardResult frame    (Content-Type application/x-dataaudit-result)
//	PUT  /v1/models/{name}/replicate
//	    body: gob ReplicaEnvelope  (Content-Type application/x-dataaudit-model)
//
// Model sync is pull-on-version-mismatch: before its first shard, the
// coordinator GETs the worker's /v1/models/{name} metadata and pushes a
// replica only when (Version, SchemaHash, CreatedAt) disagree —
// registry.InstallReplica's CreatedAt guard means a deleted-and-recreated
// model on either side can never silently poison a worker. Shard requests
// then pin both version and CreatedAt; a worker whose model changed
// underneath answers 409 and the coordinator resyncs and retries.
//
// Failure handling is shard-grained: a worker that dies mid-shard has the
// whole shard re-dispatched to a surviving worker, whose result replaces
// whatever the cut response had decoded, so the merged report is
// deterministic regardless of which workers failed when; a failed audit
// discards the merged reports altogether.
package shard

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
	"dataaudit/internal/stats"
)

// Content types of the shard protocol. They are deliberately not generic
// ("application/octet-stream"): a worker can reject a mis-routed body
// before decoding a byte.
const (
	ContentTypeChunkStream = "application/x-dataaudit-chunks"
	ContentTypeShardResult = "application/x-dataaudit-result"
	ContentTypeReplica     = "application/x-dataaudit-model"
)

// ShardResult is a worker's response to one shard dispatch: the reports
// of the shard's rows that have one, in dispatch order, numbered from 0.
// Rows is the shard's row count, Result.Rows, which the coordinator
// checks against the rows it sent.
type ShardResult struct {
	Rows   int
	Result *audit.Result
}

// EncodeShardResult writes the binary result frame laid out below. The
// frame goes out through one fixed buffer; the whole body is never held
// in memory.
func EncodeShardResult(w io.Writer, sr *ShardResult) error {
	fw := newFrameWriter(w)
	fw.writeResult(sr)
	return fw.flush()
}

// DecodeShardResult reads and validates a worker response. wantRows is the
// dispatched shard size and wantAttrs the relation width; any disagreement
// — a foreign row count or width, out-of-range finding attributes, rows
// past the shard, counts the body cannot hold — is a protocol error,
// never a silent partial merge. The returned result is fully owned:
// findings live in one arena and every Best points into its report's own
// findings. Decoding allocates at most wantRows reports and wantRows ×
// wantAttrs findings, whatever the frame claims; the dimensions grow only
// with the bytes actually read.
func DecodeShardResult(r io.Reader, wantRows, wantAttrs int) (*ShardResult, error) {
	fr := newFrameReader(r)
	h, err := fr.header(wantRows, wantAttrs)
	if err != nil {
		return nil, err
	}
	res := &audit.Result{Rows: h.rows, NumAttrs: h.attrs}
	if res.Reports, res.Dims, res.CheckTime, err = fr.body(h, 0); err != nil {
		return nil, err
	}
	return &ShardResult{Rows: h.rows, Result: res}, nil
}

// ReplicaEnvelope is the replication payload: the source registry's meta
// sidecar verbatim plus the model's gob bytes (audit.Marshal). The model
// travels as opaque bytes so the envelope decode cannot partially
// materialize a model the meta guard then rejects.
type ReplicaEnvelope struct {
	Meta  registry.Meta
	Model []byte
}

// EncodeReplica writes the gob wire form of a replication push.
func EncodeReplica(w io.Writer, meta registry.Meta, m *audit.Model) error {
	b, err := audit.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: marshalling replica: %w", err)
	}
	return gob.NewEncoder(w).Encode(&ReplicaEnvelope{Meta: meta, Model: b})
}

// DecodeReplica reads a replication push and materializes the model.
// Identity validation (schema hash vs meta, CreatedAt guard) belongs to
// registry.InstallReplica — this only gets the bytes back into shape.
func DecodeReplica(r io.Reader) (registry.Meta, *audit.Model, error) {
	var env ReplicaEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return registry.Meta{}, nil, fmt.Errorf("shard: decoding replica: %w", err)
	}
	m, err := audit.Unmarshal(env.Model)
	if err != nil {
		return registry.Meta{}, nil, fmt.Errorf("shard: replica model: %w", err)
	}
	return env.Meta, m, nil
}

// ErrSchemaMismatch marks a shard stream whose schema does not hash to the
// model's recorded fingerprint. Workers map it to 400.
var ErrSchemaMismatch = errors.New("shard: stream schema does not match the model's schema hash")

// The shard result frame is what a worker answers /audit/shard with.
// Integers are varints, zig-zag for signed ones; floats are their IEEE
// 754 bits, little-endian; every encoding is the shortest one, so a
// result has exactly one frame.
//
//	header   the magic "DQSR", version byte 2, a flags byte (bit 0: a
//	         result follows; without one the frame ends here), then Rows,
//	         NumAttrs and the report count (signed), and the total
//	         finding count, which sizes the decoder's findings arena
//	report   one per row whose report is not audit.RecordReport.Empty,
//	         in row order: a flags byte (bit 0 Suspicious; bit 1 Best is
//	         set; bit 2 ErrorConf follows, absent for +0), the row gap
//	         (how many clean rows precede it since the previous report),
//	         the ID as its difference from the previous report's ID plus
//	         the rows between them, [ErrorConf, 8 bytes], and the finding
//	         count. A clean row costs nothing but its share of a gap; its
//	         ID is the coordinator's to know.
//	finding  Attr, Observed and Predicted, then PHat, PObs, N and
//	         ErrorConf (8 bytes each) and the Suggestion's fixed
//	         dataset.Value record
//	trailer  the dimension count (0 for nil Dims), then per dimension
//	         Attr, Nulls, Rows and a shape byte (bit 0 NomSeen, bit 1
//	         Sketch); NomSeen as its length and a bitmap, low bit first,
//	         zero-padded; Sketch as K, the hash count and the ascending
//	         hashes (8 bytes each). Then CheckTime in nanoseconds, which
//	         ends the body.
//
// Best travels as a flag: the decoder re-aims it with
// audit.RecordReport.RepointBest, at the first finding carrying the
// report's ErrorConf.
const (
	frameMagic   = "DQSR"
	frameVersion = 2

	frameHasResult = 1 << 0

	repSuspicious = 1 << 0
	repBest       = 1 << 1
	repConf       = 1 << 2

	dimNomSeen = 1 << 0
	dimSketch  = 1 << 1

	// frameBuffer is the fixed buffer a frame is written through and the
	// read-ahead of its decoder.
	frameBuffer = 32 << 10

	maxHeader     = len(frameMagic) + 2 + 4*binary.MaxVarintLen64
	maxReportHead = 1 + 3*binary.MaxVarintLen64 + 8
	maxFinding    = 3*binary.MaxVarintLen64 + 4*8 + dataset.ValueRecordSize
	maxDimHead    = 3*binary.MaxVarintLen64 + 1
)

// frameWriter streams a frame through one fixed buffer.
type frameWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: w, buf: make([]byte, 0, frameBuffer)}
}

// room makes at least n bytes of the buffer free.
func (fw *frameWriter) room(n int) {
	if cap(fw.buf)-len(fw.buf) < n {
		fw.flush()
	}
}

// flush writes out what is buffered; after a failed write it only drops
// it, and keeps returning the first error.
func (fw *frameWriter) flush() error {
	if fw.err == nil && len(fw.buf) > 0 {
		_, fw.err = fw.w.Write(fw.buf)
	}
	fw.buf = fw.buf[:0]
	return fw.err
}

func (fw *frameWriter) writeResult(sr *ShardResult) {
	fw.buf = append(fw.buf, frameMagic...)
	fw.buf = append(fw.buf, frameVersion)
	res := sr.Result
	if res == nil {
		fw.buf = append(fw.buf, 0)
		return
	}
	reports, total, prevRow := 0, 0, -1
	for i := range res.Reports {
		rep := &res.Reports[i]
		if rep.Empty() {
			continue
		}
		if rep.Row <= prevRow || rep.Row >= sr.Rows {
			fw.err = fmt.Errorf("shard: encoding result: report row %d after row %d of a %d-row shard", rep.Row, prevRow, sr.Rows)
			return
		}
		prevRow = rep.Row
		reports++
		total += len(rep.Findings)
	}
	b := append(fw.buf, frameHasResult)
	b = binary.AppendVarint(b, int64(sr.Rows))
	b = binary.AppendVarint(b, int64(res.NumAttrs))
	b = binary.AppendVarint(b, int64(reports))
	fw.buf = binary.AppendUvarint(b, uint64(total))
	prevRow, prevID := -1, int64(-1)
	for i := range res.Reports {
		if fw.err != nil {
			return
		}
		rep := &res.Reports[i]
		if rep.Empty() {
			continue
		}
		fw.room(maxReportHead)
		fw.buf = appendReportHead(fw.buf, rep, prevRow, prevID)
		prevRow, prevID = rep.Row, rep.ID
		for j := range rep.Findings {
			fw.room(maxFinding)
			fw.buf = appendFinding(fw.buf, &rep.Findings[j])
		}
	}
	fw.writeDims(res.Dims)
	fw.room(binary.MaxVarintLen64)
	fw.buf = binary.AppendVarint(fw.buf, int64(res.CheckTime))
}

// appendReportHead writes a report that follows the one at prevRow with
// prevID (−1 and −1 for the first).
func appendReportHead(b []byte, rep *audit.RecordReport, prevRow int, prevID int64) []byte {
	var flags byte
	if rep.Suspicious {
		flags |= repSuspicious
	}
	if rep.Best != nil {
		flags |= repBest
	}
	conf := math.Float64bits(rep.ErrorConf)
	if conf != 0 {
		flags |= repConf
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(rep.Row-prevRow-1))
	b = binary.AppendVarint(b, rep.ID-prevID-int64(rep.Row-prevRow))
	if conf != 0 {
		b = binary.LittleEndian.AppendUint64(b, conf)
	}
	return binary.AppendUvarint(b, uint64(len(rep.Findings)))
}

func appendFinding(b []byte, f *audit.Finding) []byte {
	b = binary.AppendVarint(b, int64(f.Attr))
	b = binary.AppendVarint(b, int64(f.Observed))
	b = binary.AppendVarint(b, int64(f.Predicted))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.PHat))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.PObs))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.N))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.ErrorConf))
	return f.Suggestion.AppendRecord(b)
}

func (fw *frameWriter) writeDims(dims []audit.AttrDim) {
	fw.room(binary.MaxVarintLen64)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(dims)))
	for i := range dims {
		d := &dims[i]
		var shape byte
		if d.NomSeen != nil {
			shape |= dimNomSeen
		}
		if d.Sketch != nil {
			shape |= dimSketch
		}
		fw.room(maxDimHead)
		b := binary.AppendVarint(fw.buf, int64(d.Attr))
		b = binary.AppendVarint(b, d.Nulls)
		b = binary.AppendVarint(b, d.Rows)
		fw.buf = append(b, shape)
		if d.NomSeen != nil {
			fw.room(binary.MaxVarintLen64)
			fw.buf = binary.AppendUvarint(fw.buf, uint64(len(d.NomSeen)))
			for lo := 0; lo < len(d.NomSeen); lo += 8 {
				var bits byte
				for k, seen := range d.NomSeen[lo:min(lo+8, len(d.NomSeen))] {
					if seen {
						bits |= 1 << k
					}
				}
				fw.room(1)
				fw.buf = append(fw.buf, bits)
			}
		}
		if d.Sketch != nil {
			fw.room(2 * binary.MaxVarintLen64)
			fw.buf = binary.AppendVarint(fw.buf, int64(d.Sketch.K))
			fw.buf = binary.AppendUvarint(fw.buf, uint64(len(d.Sketch.Hashes)))
			for _, h := range d.Sketch.Hashes {
				fw.room(8)
				fw.buf = binary.LittleEndian.AppendUint64(fw.buf, h)
			}
		}
	}
}

// frameReader decodes a frame from a buffered body. Fields are parsed
// straight out of the reader's buffer: a window of up to frameBuffer
// peeked bytes, refilled only when a group of fields might not fit in
// what is left of it, so a report costs no call into bufio.
type frameReader struct {
	r    *bufio.Reader
	win  []byte // peeked and not yet discarded
	off  int    // how much of win is parsed
	perr error  // why win ends short: the end of the body or a read error
	// bad marks a field that ran past the window or was not in its
	// shortest encoding; check turns it into the group's error.
	bad bool
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, frameBuffer)}
}

// frameHeader is a validated header.
type frameHeader struct {
	rows, attrs, reports, findings int
}

// group readies the window for a group of fields at most n bytes long:
// n bytes ahead, fewer only where the body ends.
func (fr *frameReader) group(n int) {
	if len(fr.win)-fr.off < n && fr.perr == nil {
		fr.refill()
	}
}

func (fr *frameReader) refill() {
	fr.r.Discard(fr.off)
	fr.win, fr.perr = fr.r.Peek(frameBuffer)
	fr.off = 0
}

func (fr *frameReader) byte() byte {
	if fr.off >= len(fr.win) {
		fr.bad = true
		return 0
	}
	fr.off++
	return fr.win[fr.off-1]
}

func (fr *frameReader) uvarint() uint64 {
	if off := fr.off; off < len(fr.win) && fr.win[off] < 0x80 {
		fr.off = off + 1
		return uint64(fr.win[off])
	}
	return fr.longUvarint()
}

func (fr *frameReader) longUvarint() uint64 {
	x, n := binary.Uvarint(fr.win[fr.off:])
	if n <= 0 || fr.win[fr.off+n-1] == 0 {
		fr.bad = true
		return 0
	}
	fr.off += n
	return x
}

// varint undoes the zig-zag mapping binary.AppendVarint applies.
func (fr *frameReader) varint() int64 {
	ux := fr.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

func (fr *frameReader) u64() uint64 {
	if len(fr.win)-fr.off < 8 {
		fr.bad = true
		return 0
	}
	fr.off += 8
	return binary.LittleEndian.Uint64(fr.win[fr.off-8:])
}

// check reports whether the group just parsed was whole: if not, that
// the body ended inside it or that a field is malformed.
func (fr *frameReader) check(what string, idx int) error {
	if !fr.bad {
		return nil
	}
	return fr.fail(what, idx)
}

func (fr *frameReader) fail(what string, idx int) error {
	if idx >= 0 {
		what = fmt.Sprintf("%s %d", what, idx)
	}
	if err := fr.perr; err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("shard: decoding result: body ends inside %s: %w", what, err)
	}
	return fmt.Errorf("shard: decoding result: malformed %s", what)
}

// header reads and checks the frame header against the dispatched shard.
func (fr *frameReader) header(wantRows, wantAttrs int) (frameHeader, error) {
	var h frameHeader
	fr.group(maxHeader)
	if len(fr.win) < len(frameMagic)+1 || string(fr.win[:len(frameMagic)]) != frameMagic {
		return h, fmt.Errorf("shard: decoding result: body is not a version %d shard result frame (a worker of an older release answers in gob; coordinator and workers must run the same release)", frameVersion)
	}
	if v := fr.win[len(frameMagic)]; v != frameVersion {
		return h, fmt.Errorf("shard: decoding result: frame version %d, this release reads version %d (coordinator and workers must run the same release)", v, frameVersion)
	}
	fr.off = len(frameMagic) + 1
	flags := fr.byte()
	if !fr.bad && flags == 0 {
		return h, fmt.Errorf("shard: result missing from response")
	}
	rows, attrs, reports := fr.varint(), fr.varint(), fr.varint()
	findings := fr.uvarint()
	if err := fr.check("header", -1); err != nil {
		return h, err
	}
	if flags != frameHasResult {
		return h, fmt.Errorf("shard: decoding result: unknown frame flags %#x", flags)
	}
	if rows != int64(wantRows) || reports < 0 || reports > int64(wantRows) {
		return h, fmt.Errorf("shard: worker returned %d rows and %d reports for a %d-row shard", rows, reports, wantRows)
	}
	if attrs != int64(wantAttrs) {
		return h, fmt.Errorf("shard: worker scored %d attributes, want %d", attrs, wantAttrs)
	}
	if findings > uint64(wantRows)*uint64(wantAttrs) {
		return h, fmt.Errorf("shard: worker claims %d findings for %d rows of %d attributes", findings, wantRows, wantAttrs)
	}
	return frameHeader{rows: wantRows, attrs: wantAttrs, reports: int(reports), findings: int(findings)}, nil
}

// body decodes the reports, numbering the shard's rows from rowOffset,
// and returns them with the trailer. The findings of all reports share
// one arena sized from the header.
func (fr *frameReader) body(h frameHeader, rowOffset int) ([]audit.RecordReport, []audit.AttrDim, time.Duration, error) {
	var reps []audit.RecordReport
	if h.reports > 0 {
		reps = make([]audit.RecordReport, h.reports)
	}
	var arena []audit.Finding
	if h.findings > 0 {
		arena = make([]audit.Finding, h.findings)
	}
	used := 0
	prevRow, prevID := -1, int64(-1)
	for i := range reps {
		fr.group(maxReportHead)
		flags := fr.byte()
		gap := fr.uvarint()
		idDelta := fr.varint()
		var confBits uint64
		if flags&repConf != 0 {
			confBits = fr.u64()
			fr.bad = fr.bad || confBits == 0
		}
		n := fr.uvarint()
		if err := fr.check("report", i); err != nil {
			return nil, nil, 0, err
		}
		if flags&^(repSuspicious|repBest|repConf) != 0 {
			return nil, nil, 0, fmt.Errorf("shard: decoding result: report %d has unknown flags %#x", i, flags)
		}
		if gap >= uint64(h.rows-prevRow-1) {
			return nil, nil, 0, fmt.Errorf("shard: report %d skips %d rows after row %d of a %d-row shard", i, gap, prevRow, h.rows)
		}
		if n > uint64(h.attrs) {
			return nil, nil, 0, fmt.Errorf("shard: report %d claims %d findings for %d attributes", i, n, h.attrs)
		}
		if n > uint64(len(arena)-used) {
			return nil, nil, 0, fmt.Errorf("shard: report %d overruns the frame's %d findings", i, len(arena))
		}
		row := prevRow + 1 + int(gap)
		id := prevID + int64(row-prevRow) + idDelta
		rep := &reps[i]
		*rep = audit.RecordReport{Row: rowOffset + row, ID: id, ErrorConf: math.Float64frombits(confBits), Suspicious: flags&repSuspicious != 0}
		if n > 0 {
			rep.Findings = arena[used : used+int(n) : used+int(n)]
			used += int(n)
			for j := range rep.Findings {
				if err := fr.finding(&rep.Findings[j], i, h.attrs); err != nil {
					return nil, nil, 0, err
				}
			}
		}
		if flags&repBest != 0 {
			if n > 0 {
				rep.Best = &rep.Findings[0]
				rep.RepointBest()
			}
			if rep.Best == nil || rep.Best.ErrorConf != rep.ErrorConf {
				return nil, nil, 0, fmt.Errorf("shard: report %d is flagged with a best finding, but none carries its confidence %v", i, rep.ErrorConf)
			}
		}
		if rep.Empty() {
			return nil, nil, 0, fmt.Errorf("shard: report %d of row %d carries nothing; a clean row travels as a gap", i, row)
		}
		prevRow, prevID = row, id
	}
	if used != len(arena) {
		return nil, nil, 0, fmt.Errorf("shard: reports carry %d of the frame's %d findings", used, len(arena))
	}
	dims, err := fr.dims(h)
	if err != nil {
		return nil, nil, 0, err
	}
	fr.group(binary.MaxVarintLen64)
	checkTime := time.Duration(fr.varint())
	if err := fr.check("trailer", -1); err != nil {
		return nil, nil, 0, err
	}
	return reps, dims, checkTime, fr.end()
}

// end checks that the body ends with the frame.
func (fr *frameReader) end() error {
	err := fr.perr
	if fr.off == len(fr.win) && err == nil {
		fr.r.Discard(fr.off)
		fr.win, fr.off = nil, 0
		_, err = fr.r.Peek(1)
	}
	switch {
	case fr.off < len(fr.win) || err == nil:
		return fmt.Errorf("shard: decoding result: trailing bytes after the result frame")
	case err != io.EOF:
		return fmt.Errorf("shard: decoding result: %w", err)
	}
	return nil
}

// finding decodes one finding of report i.
func (fr *frameReader) finding(f *audit.Finding, i, attrs int) error {
	fr.group(maxFinding)
	attr, observed, predicted := fr.varint(), fr.varint(), fr.varint()
	f.PHat = math.Float64frombits(fr.u64())
	f.PObs = math.Float64frombits(fr.u64())
	f.N = math.Float64frombits(fr.u64())
	f.ErrorConf = math.Float64frombits(fr.u64())
	if len(fr.win)-fr.off >= dataset.ValueRecordSize {
		fr.bad = fr.bad || f.Suggestion.SetRecord(fr.win[fr.off:]) != nil
		fr.off += dataset.ValueRecordSize
	} else {
		fr.bad = true
	}
	if err := fr.check("a finding of report", i); err != nil {
		return err
	}
	if attr < 0 || attr >= int64(attrs) {
		return fmt.Errorf("shard: report %d finding names attribute %d of %d", i, attr, attrs)
	}
	f.Attr, f.Observed, f.Predicted = int(attr), int(observed), int(predicted)
	return nil
}

// dims decodes the trailer's quality dimensions: none, or one per
// attribute, each counting the shard's rows. A NomSeen bitmap grows as
// its bytes arrive, so a claimed length costs nothing the body does not
// carry; a sketch holds at most the capacity audits build.
func (fr *frameReader) dims(h frameHeader) ([]audit.AttrDim, error) {
	fr.group(binary.MaxVarintLen64)
	n := fr.uvarint()
	if err := fr.check("dimension count", -1); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n != uint64(h.attrs) {
		return nil, fmt.Errorf("shard: worker sent %d dimensions for %d attributes", n, h.attrs)
	}
	dims := make([]audit.AttrDim, n)
	for i := range dims {
		d := &dims[i]
		fr.group(maxDimHead)
		attr, nulls, rows := fr.varint(), fr.varint(), fr.varint()
		shape := fr.byte()
		if err := fr.check("dimension", i); err != nil {
			return nil, err
		}
		if attr != int64(i) || shape&^(dimNomSeen|dimSketch) != 0 {
			return nil, fmt.Errorf("shard: decoding result: malformed dimension %d", i)
		}
		if rows != int64(h.rows) || nulls < 0 || nulls > rows {
			return nil, fmt.Errorf("shard: dimension %d counts %d nulls in %d rows of a %d-row shard", i, nulls, rows, h.rows)
		}
		d.Attr, d.Nulls, d.Rows = i, nulls, rows
		if shape&dimNomSeen != 0 {
			seen, err := fr.bitmap(i)
			if err != nil {
				return nil, err
			}
			d.NomSeen = seen
		}
		if shape&dimSketch != 0 {
			sk, err := fr.sketch(i)
			if err != nil {
				return nil, err
			}
			d.Sketch = sk
		}
	}
	return dims, nil
}

func (fr *frameReader) bitmap(i int) ([]bool, error) {
	fr.group(binary.MaxVarintLen64)
	n := fr.uvarint()
	if err := fr.check("domain bitmap of dimension", i); err != nil {
		return nil, err
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("shard: decoding result: dimension %d claims a %d-value domain", i, n)
	}
	seen := make([]bool, 0, min(int(n), frameBuffer))
	for len(seen) < int(n) {
		fr.group(1)
		x := fr.byte()
		if err := fr.check("domain bitmap of dimension", i); err != nil {
			return nil, err
		}
		bits := min(int(n)-len(seen), 8)
		if x>>bits != 0 {
			return nil, fmt.Errorf("shard: decoding result: malformed domain bitmap of dimension %d", i)
		}
		for k := 0; k < bits; k++ {
			seen = append(seen, x&(1<<k) != 0)
		}
	}
	return seen, nil
}

func (fr *frameReader) sketch(i int) (*stats.KMV, error) {
	fr.group(2 * binary.MaxVarintLen64)
	k, n := fr.varint(), fr.uvarint()
	if err := fr.check("sketch of dimension", i); err != nil {
		return nil, err
	}
	if k != stats.DefaultKMVSize || n > uint64(k) {
		return nil, fmt.Errorf("shard: dimension %d sketch holds %d hashes at capacity %d; audits build capacity %d", i, n, k, stats.DefaultKMVSize)
	}
	sk := &stats.KMV{K: int(k)}
	if n > 0 {
		sk.Hashes = make([]uint64, n)
	}
	for j := range sk.Hashes {
		fr.group(8)
		h := fr.u64()
		if err := fr.check("sketch of dimension", i); err != nil {
			return nil, err
		}
		if j > 0 && h <= sk.Hashes[j-1] {
			return nil, fmt.Errorf("shard: decoding result: dimension %d sketch hashes out of order", i)
		}
		sk.Hashes[j] = h
	}
	return sk, nil
}
