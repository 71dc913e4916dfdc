package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
)

// csvScanner splits a CSV stream into records of byte fields without
// copying or allocating per record. The dialect is encoding/csv's with
// its defaults: comma-separated, LF or CRLF line ends (CRLF reads as LF,
// inside quoted fields too), RFC 4180 quoting without lazy quotes, blank
// lines skipped and a trailing \r before EOF dropped. Malformed quoting
// surfaces as the *csv.ParseError encoding/csv would return, positions
// included.
//
// A record without a quote is split in place: its fields alias the
// bufio buffer. A record with a quote is unquoted into rec, and may span
// lines. Either way the fields stay valid only until the next call to
// next.
type csvScanner struct {
	br      lineReader
	raw     []byte   // a line longer than br's buffer, reassembled
	rec     []byte   // unquoted field bytes of a record with a quote
	ends    []int    // end offset in rec of each field
	fields  [][]byte // the fields of the current record
	numLine int      // physical lines read so far
	recLine int      // physical line the current record started on
}

// lineReader is where a csvScanner reads physical lines from: the
// input's bufio.Reader, or the bytes of a cut CSVBlock.
type lineReader interface {
	ReadSlice(delim byte) ([]byte, error)
}

// readRaw reads the next physical line as the input spells it, its \n
// included; a line cut short by the end of the input or a read error
// comes with that error. The line is valid until the next call.
func (s *csvScanner) readRaw() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.raw = append(s.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.raw = append(s.raw, line...)
		}
		line = s.raw
	}
	s.numLine++
	return line, err
}

// readLine reads the next physical line including its trailing \n, with
// a CRLF end rewritten to LF. A line cut short by EOF has no \n (and
// loses a final \r); if any bytes were read the error is never io.EOF.
// The line is valid until the next call.
func (s *csvScanner) readLine() ([]byte, error) {
	line, err := s.readRaw()
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 when b ends in \n, else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// next returns the fields of the next non-blank record, io.EOF once the
// stream is exhausted, or the read or quoting error that ended the
// record. recLine is the record's first physical line afterwards.
func (s *csvScanner) next() ([][]byte, error) {
	var line []byte
	var err error
	for err == nil {
		line, err = s.readLine()
		if err == nil && len(line) == lengthNL(line) {
			continue
		}
		break
	}
	if err == io.EOF {
		return nil, io.EOF
	}
	s.recLine = s.numLine
	if bytes.IndexByte(line, '"') >= 0 {
		return s.quoted(line, err)
	}
	if err != nil {
		return nil, err
	}
	s.fields = s.fields[:0]
	line = line[:len(line)-lengthNL(line)]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			s.fields = append(s.fields, line)
			return s.fields, nil
		}
		s.fields = append(s.fields, line[:i])
		line = line[i+1:]
	}
}

// quoted parses a record whose first line holds a quote, following
// encoding/csv's state machine step for step so that fields, errors and
// error positions agree; readErr is the error that came with line.
func (s *csvScanner) quoted(line []byte, readErr error) ([][]byte, error) {
	s.rec, s.ends, s.fields = s.rec[:0], s.ends[:0], s.fields[:0]
	var err error
	lineNo, col := s.numLine, 1
field:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			f := line
			if i >= 0 {
				f = f[:i]
			} else {
				f = f[:len(f)-lengthNL(f)]
			}
			if j := bytes.IndexByte(f, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: s.recLine, Line: s.numLine, Column: col + j, Err: csv.ErrBareQuote}
				break field
			}
			s.rec = append(s.rec, f...)
			s.ends = append(s.ends, len(s.rec))
			if i < 0 {
				break field
			}
			line = line[i+1:]
			col += i + 1
			continue
		}
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				s.rec = append(s.rec, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					s.rec = append(s.rec, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					col++
					s.ends = append(s.ends, len(s.rec))
					continue field
				case lengthNL(line) == len(line):
					s.ends = append(s.ends, len(s.rec))
					break field
				default:
					err = &csv.ParseError{StartLine: s.recLine, Line: s.numLine, Column: col - 1, Err: csv.ErrQuote}
					break field
				}
			case len(line) > 0:
				// The quoted field runs on past the end of this line.
				s.rec = append(s.rec, line...)
				if readErr != nil {
					break field
				}
				col += len(line)
				line, readErr = s.readLine()
				if len(line) > 0 {
					lineNo++
					col = 1
				}
				if readErr == io.EOF {
					readErr = nil
				}
			default:
				if readErr == nil {
					err = &csv.ParseError{StartLine: s.recLine, Line: lineNo, Column: col, Err: csv.ErrQuote}
				}
				break field
			}
		}
	}
	if err == nil {
		err = readErr
	}
	if err != nil {
		return nil, err
	}
	prev := 0
	for _, end := range s.ends {
		s.fields = append(s.fields, s.rec[prev:end])
		prev = end
	}
	return s.fields, nil
}
