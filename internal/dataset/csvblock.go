package dataset

import (
	"bytes"
	"fmt"
	"io"
)

// A CSVSource decodes in two steps, so that the expensive one can run on
// any goroutine: Cut reads whole records off the input into a CSVBlock
// without parsing them, and Decode parses a block into a ColumnChunk.
// Cut is serial and cheap — it only finds record ends, by quote parity —
// while Decode runs the csvScanner over the block's bytes and parses the
// cells. NextChunk is one Cut and one Decode; the streaming audit cuts on
// its feeding goroutine and decodes on its scoring goroutines (the
// chunked parallel loading of Mühlbauer et al., "Instant Loading for Main
// Memory Databases", VLDB 2013).

// CSVBlockBytes is the byte target Cut stops at: a block ends at the first
// record end past it, even short of the record count asked for, so it
// holds at most CSVBlockBytes plus one record.
const CSVBlockBytes = 256 << 10

// minCSVBlockCap is the smallest buffer a block grows to.
const minCSVBlockCap = 4 << 10

// CSVBlock is a run of whole records cut from a CSVSource's input as the
// input spells them, with the physical line and record ID it starts at
// and the error that ended the read after it. A block and its buffers are
// reused by every Cut into it, so recycling blocks keeps a stream free of
// allocation. The zero value is an empty block.
type CSVBlock struct {
	buf       []byte // the block's lines, raw
	firstLine int    // the physical line buf starts on
	firstID   int64  // the record ID of the block's first record
	// end is what ended the read after buf: nil when the block was cut at
	// a record end, io.EOF at the end of the input, else the read error
	// (the record byte cap's among them).
	end   error
	lines blockLines
	sc    csvScanner
}

// blockLines serves a block's bytes line by line to a csvScanner, as a
// bufio.Reader would serve the input: the last line comes with the error
// that ended the block.
type blockLines struct {
	rest []byte
	end  error
}

// ReadSlice implements lineReader.
func (r *blockLines) ReadSlice(delim byte) ([]byte, error) {
	if i := bytes.IndexByte(r.rest, delim); i >= 0 {
		line := r.rest[:i+1]
		r.rest = r.rest[i+1:]
		return line, nil
	}
	line := r.rest
	r.rest = nil
	return line, r.end
}

// add appends one raw line, doubling the buffer when it is full.
func (b *CSVBlock) add(line []byte) {
	if need := len(b.buf) + len(line); need > cap(b.buf) {
		grown := make([]byte, len(b.buf), max(2*cap(b.buf), need, minCSVBlockCap))
		copy(grown, b.buf)
		b.buf = grown
	}
	b.buf = append(b.buf, line...)
}

// Cut replaces b's contents with the next records of the input, up to
// limit of them or the first record end past CSVBlockBytes, and returns how
// many records it cut. Blank lines between records are kept, so Decode
// numbers lines as the input does. Cut grants each record the source's
// byte allowance as it completes it, so the record byte cap fires on the
// same byte as in a record-by-record read. A read error, or the cap, ends
// the block and is left for Decode to report where that read would have
// met it. Cut returns io.EOF, with b empty, once the input is exhausted
// or a previous block ended in an error; limit <= 0 cuts an empty block.
func (s *CSVSource) Cut(b *CSVBlock, limit int) (int, error) {
	b.buf, b.end = b.buf[:0], nil
	b.firstLine, b.firstID = s.sc.numLine+1, s.nextID
	if limit <= 0 {
		return 0, nil
	}
	if s.cutEnd != nil {
		return 0, io.EOF
	}
	if cap(b.buf) == 0 {
		b.buf = make([]byte, 0, s.blockCap) // as large as the largest block so far
	}
	records := 0
	for {
		if records = s.cutBuffered(b, records, limit); records == limit || len(b.buf) >= s.cutBytes {
			break
		}
		// What the buffer does not hold whole and quote-free — a line
		// that needs a read, a record with a quote, the end of the input
		// — goes line by line.
		line, err := s.sc.readRaw()
		if err == nil && blank(line) || err == io.EOF && len(line) == 1 && line[0] == '\r' {
			// A blank line (a lone \r at the end of the input is one):
			// kept between records, dropped before the block's first one.
			if records == 0 {
				b.firstLine++
			} else {
				b.add(line)
			}
			continue
		}
		if len(line) == 0 && err != nil {
			s.cutEnd = err
			break
		}
		// A record starts here and runs on while a quoted field is open:
		// outside an error, an odd number of quotes so far means one is.
		open := false
		for {
			b.add(line)
			if err != nil {
				s.cutEnd = err
				break
			}
			if open = open != (bytes.Count(line, quote)%2 == 1); !open {
				break
			}
			line, err = s.sc.readRaw()
		}
		records++
		if s.cutEnd != nil {
			break
		}
		s.extendBudget()
	}
	s.nextID += int64(records)
	s.blockCap = max(s.blockCap, cap(b.buf))
	if records == 0 && s.cutEnd == io.EOF {
		return 0, io.EOF
	}
	b.end = s.cutEnd
	return records, nil
}

var quote = []byte{'"'}

// blank reports whether a whole line, \n included, is blank.
func blank(line []byte) bool {
	return len(line) == 1 || len(line) == 2 && line[0] == '\r'
}

// cutBuffered moves the whole lines the input's bufio.Reader already
// holds into b, up to the first line with a quote, limit records or the
// byte target, and returns the block's record count. It takes exactly
// the lines a line-by-line read would take without reading, so the
// reads below, and where the record byte cap fires, stay the same.
func (s *CSVSource) cutBuffered(b *CSVBlock, records, limit int) int {
	avail, _ := s.br.Peek(s.br.Buffered())
	if q := bytes.IndexByte(avail, '"'); q >= 0 {
		avail = avail[:q]
	}
	start, end := 0, 0 // avail[start:end] goes into b
	for records < limit && len(b.buf)+end-start < s.cutBytes {
		i := bytes.IndexByte(avail[end:], '\n')
		if i < 0 {
			break
		}
		line := avail[end : end+i+1]
		end += i + 1
		s.sc.numLine++
		if blank(line) {
			if records == 0 {
				b.firstLine++
				start = end
			}
			continue
		}
		records++
		s.extendBudget()
	}
	b.add(avail[start:end])
	s.br.Discard(end)
	return records
}

// Decode appends the records of a block that Cut filled to ck, with their
// record IDs, and returns how many it appended and the error that ended
// them: nil once the whole block is in, else the error a record-by-record
// read of the input meets at that record — malformed quoting, a
// RowWidthError, a cell's parse error, or the read error that ended the
// block — tagged with the physical line the record starts on. Blocks
// decode independently: different blocks may be decoded concurrently, in
// any order, each by one goroutine at a time.
func (b *CSVBlock) Decode(ck *ColumnChunk) (int, error) {
	b.lines = blockLines{rest: b.buf, end: b.end}
	if b.end == nil {
		b.lines.end = io.EOF
	}
	b.sc.br, b.sc.numLine = &b.lines, b.firstLine-1
	width := ck.Schema().Len()
	for n := 0; ; n++ {
		rec, err := b.sc.next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("dataset: reading CSV line %d: %w", b.sc.recLine, err)
		}
		if len(rec) != width {
			return n, &RowWidthError{Line: b.sc.recLine, Got: len(rec), Want: width}
		}
		if err := ck.appendRecord(rec, b.firstID+int64(n)); err != nil {
			return n, fmt.Errorf("dataset: CSV line %d: %w", b.sc.recLine, err)
		}
	}
}
