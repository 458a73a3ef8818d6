package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
)

// The HTTP/1.1 line and field grammar that locshortd's request reader and
// the cluster's peer answer reader share. Both parse a message head in the
// connection's bufio.Reader and accept a subset of what net/http accepts:
// every line ends in CRLF and fits the read buffer, no line is folded, a
// field name is a token, a field value holds no control character but tab.

// MaxFields bounds the header lines of one message head, and those of a
// chunked body's trailer.
const MaxFields = 64

// Ways a message head is malformed.
var (
	ErrHeaderLine    = errors.New("wire: malformed header line")
	ErrLongLine      = errors.New("wire: header line longer than the read buffer")
	ErrHeaderTooLong = errors.New("wire: header or trailer too long")
)

var crlf, comma = []byte("\r\n"), []byte(",")

// ReadLine returns the next line in br's buffer, its LF included; the
// slice is valid until the next read. A line longer than the buffer is
// ErrLongLine, and the end of input io.ErrUnexpectedEOF.
//
//locshort:hotpath
func ReadLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch err {
	case nil:
		return line, nil
	case bufio.ErrBufferFull:
		return nil, ErrLongLine
	case io.EOF:
		return nil, io.ErrUnexpectedEOF
	}
	return nil, err
}

// Field splits a header line, CRLF included, into its name and its value
// trimmed of spaces and tabs; an empty line ends the section. A line
// without CRLF, one starting with a space or tab (a folded line), a name
// that is not a token and a value with a control character other than
// tab are ErrHeaderLine.
//
//locshort:hotpath
func Field(line []byte) (name, value []byte, end bool, err error) {
	line, ok := bytes.CutSuffix(line, crlf)
	if !ok {
		return nil, nil, false, ErrHeaderLine
	}
	if len(line) == 0 {
		return nil, nil, true, nil
	}
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return nil, nil, false, ErrHeaderLine
	}
	name, value = line[:colon], line[colon+1:]
	for _, c := range name {
		if !IsToken(c) {
			return nil, nil, false, ErrHeaderLine
		}
	}
	if !ValidFieldValue(value) {
		return nil, nil, false, ErrHeaderLine
	}
	return name, bytes.Trim(value, " \t"), false, nil
}

// ReadTrailer reads the trailer section after a chunked body's last
// chunk, up to its empty line, and drops it. Like net/http, it takes at
// most a read buffer's worth.
//
//locshort:hotpath
func ReadTrailer(br *bufio.Reader) error {
	size := 0
	for n := 0; ; n++ {
		line, err := ReadLine(br)
		if err != nil {
			return err
		}
		if size += len(line); size > br.Size() || n > MaxFields {
			return ErrHeaderTooLong
		}
		if _, _, end, err := Field(line); err != nil || end {
			return err
		}
	}
}

// ParseLength parses a Content-Length value as net/http does: decimal
// digits only (strconv.ParseInt would take a sign), at most 2^63-1.
func ParseLength[T string | []byte](v T) (int64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(v); i++ {
		c := v[i]
		if !IsDigit(c) || n > (math.MaxInt64-int64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// HasToken reports whether the comma-separated list v names token,
// ignoring ASCII case and the spaces and tabs around each element.
func HasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var elem []byte
		elem, v, _ = bytes.Cut(v, comma)
		if EqualFold(bytes.Trim(elem, " \t"), token) {
			return true
		}
	}
	return false
}

// EqualFold reports whether b equals s, ignoring ASCII case.
func EqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if lowerASCII(c) != lowerASCII(s[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// IsDigit reports whether c is a decimal digit.
func IsDigit(c byte) bool { return '0' <= c && c <= '9' }

// IsToken reports whether c may appear in a header name or a method (RFC
// 9110 tchar).
func IsToken(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || IsDigit(c) ||
		c < 0x80 && strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// ValidFieldValue reports whether v may be a header value: no control
// character other than tab, as net/http's reader requires.
func ValidFieldValue[T string | []byte](v T) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; (b < ' ' && b != '\t') || b == 0x7f {
			return false
		}
	}
	return true
}
