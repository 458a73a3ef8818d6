package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net/http/httputil"
	"strings"

	"locshort/internal/wire"
)

// AnswerHeaders names the answer headers a peer call keeps, in canonical
// form (textproto.CanonicalMIMEHeaderKey): the content type, the declared
// length, and the X-Locshort-* metadata a relay copies through. A Header
// holds their values in this order.
var AnswerHeaders = [...]string{"Content-Type", "Content-Length", wire.HeaderKey, wire.HeaderGraph,
	wire.HeaderSource, wire.HeaderServedBy, wire.HeaderBuildNs}

// lengthField is the index of Content-Length in AnswerHeaders.
const lengthField = 1

// Header holds the values of AnswerHeaders in one peer answer, "" for a
// header the answer did not carry. A header sent twice keeps its first
// value, as http.Header.Get reads it.
type Header [len(AnswerHeaders)]string

// Get returns the value of name, one of AnswerHeaders; any other name
// has none.
func (h *Header) Get(name string) string {
	for i, n := range AnswerHeaders {
		if n == name {
			return h[i]
		}
	}
	return ""
}

// Set sets the value of name, one of AnswerHeaders; any other name is
// not kept.
func (h *Header) Set(name, value string) {
	for i, n := range AnswerHeaders {
		if n == name {
			h[i] = value
			return
		}
	}
}

// maxAnswerFields bounds the header lines of an answer, and those of a
// chunked body's trailer.
const maxAnswerFields = 64

// Ways a peer answer is malformed. Each is the peer's failure, like a
// refused dial.
var (
	errStatusLine    = errors.New("cluster: malformed peer answer status line")
	errHeaderLine    = errors.New("cluster: malformed peer answer header line")
	errLongLine      = errors.New("cluster: peer answer line longer than the read buffer")
	errHeaderTooLong = errors.New("cluster: peer answer header or trailer too long")
	errContentLength = errors.New("cluster: malformed peer answer Content-Length")
	errFraming       = errors.New("cluster: unsupported peer answer framing")
)

var crlf, comma = []byte("\r\n"), []byte(",")

// head is what an answer's status line and header say about the answer.
type head struct {
	status  int
	length  int64 // the declared Content-Length, -1 for none
	chunked bool
	keep    bool // HTTP/1.1 or later, without Connection: close
}

// readAnswer reads one answer from br and returns its status, kept
// header values and body, whose length is at most limit. It parses in
// place what net/http's ReadResponse would, and refuses everything
// ReadResponse refuses and some forms it accepts that no peer sends:
// lines not ending in CRLF or longer than br's buffer, folded lines,
// more than maxAnswerFields header lines, header names with a space,
// 1xx statuses, a body on a 204 or 304, a Transfer-Encoding beside a
// Content-Length or on HTTP/1.0. A declared length over limit is
// errAnswerTooLong at once, and a body that ends before its declared
// length errAnswerShort; a declared length reserves memory only as the
// body arrives (wire.ReadDeclared). The answer leaves the connection
// reusable (keep) when it is HTTP/1.1 without Connection: close, and
// framed by a length or chunked.
func readAnswer(br *bufio.Reader, limit int64) (a answer, err error) {
	hd, err := readHead(br, &a.header)
	if err != nil {
		return a, err
	}
	switch {
	case hd.length > limit:
		return a, errAnswerTooLong
	case hd.length >= 0:
		a.body, err = wire.ReadDeclared(br, nil, int(hd.length))
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			err = errAnswerShort
		}
	case hd.chunked:
		a.body, err = readUpTo(httputil.NewChunkedReader(br), limit)
		if err == nil {
			err = readTrailer(br)
		}
	default:
		// No framing: the body runs until the peer closes.
		a.body, err = readUpTo(br, limit)
	}
	if err != nil {
		return a, err
	}
	a.status = hd.status
	a.keep = hd.keep && (hd.length >= 0 || hd.chunked)
	return a, nil
}

// readUpTo reads r to its end, at most limit bytes; one more byte is
// errAnswerTooLong.
func readUpTo(r io.Reader, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(body)) > limit {
		err = errAnswerTooLong
	}
	return body, err
}

// readHead reads an answer's status line and header from br and stores
// the values of AnswerHeaders in h. Lines are parsed in br's buffer, and
// the kept values are copied into one string, which h's values slice.
//
//locshort:hotpath
func readHead(br *bufio.Reader, h *Header) (hd head, err error) {
	line, err := readLine(br)
	if err != nil {
		return hd, err
	}
	// HTTP/1.x SP three digits, then SP and a reason phrase, or nothing.
	line, ok := bytes.CutSuffix(line, crlf)
	if !ok || len(line) < 12 || string(line[:7]) != "HTTP/1." || !isDigit(line[7]) || line[8] != ' ' ||
		!isDigit(line[9]) || !isDigit(line[10]) || !isDigit(line[11]) || len(line) > 12 && line[12] != ' ' {
		return hd, errStatusLine
	}
	hd.status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	if hd.status < 200 {
		return hd, errStatusLine
	}
	http10 := line[7] == '0'

	hd.length = -1
	var buf [256]byte
	kept := buf[:0]
	var spans [len(AnswerHeaders)][2]int
	var seen [len(AnswerHeaders)]bool
	transfer, closing := false, false
fields:
	for n := 0; ; n++ {
		line, err := readLine(br)
		if err != nil {
			return hd, err
		}
		name, value, end, err := field(line)
		switch {
		case err != nil:
			return hd, err
		case end:
			break fields
		case n == maxAnswerFields:
			return hd, errHeaderTooLong
		case equalFold(name, "Transfer-Encoding"):
			// net/http takes exactly one, naming chunked alone.
			if transfer || !equalFold(value, "chunked") {
				return hd, errFraming
			}
			transfer = true
		case equalFold(name, "Connection"):
			closing = closing || hasToken(value, "close")
		case equalFold(name, "Trailer"):
			// net/http refuses these as trailer fields.
			if hasToken(value, "Transfer-Encoding") || hasToken(value, "Trailer") || hasToken(value, "Content-Length") {
				return hd, errFraming
			}
		}
		i := 0
		for i < len(AnswerHeaders) && !equalFold(name, AnswerHeaders[i]) {
			i++
		}
		switch {
		case i == len(AnswerHeaders):
		case i == lengthField:
			// A repeated Content-Length must agree, as net/http requires.
			if seen[i] {
				if !bytes.Equal(value, kept[spans[i][0]:spans[i][1]]) {
					return hd, errContentLength
				}
				continue
			}
			if hd.length, ok = parseLength(value); !ok {
				return hd, errContentLength
			}
			fallthrough
		case !seen[i]:
			seen[i] = true
			spans[i][0] = len(kept)
			kept = append(kept, value...)
			spans[i][1] = len(kept)
		}
	}
	if transfer {
		if hd.length >= 0 || http10 {
			return hd, errFraming
		}
		hd.chunked = true
	}
	if hd.status == 204 || hd.status == 304 {
		// net/http reads no body here, whatever the header says.
		if hd.chunked || hd.length > 0 {
			return hd, errFraming
		}
		hd.length = 0
	}
	hd.keep = !http10 && !closing
	s := string(kept)
	for i, sp := range spans {
		h[i] = s[sp[0]:sp[1]]
	}
	return hd, nil
}

// readTrailer reads the trailer section after a chunked body's last
// chunk, up to its empty line, and drops it. Like net/http, it takes at
// most a read buffer's worth.
//
//locshort:hotpath
func readTrailer(br *bufio.Reader) error {
	size := 0
	for n := 0; ; n++ {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if size += len(line); size > br.Size() || n > maxAnswerFields {
			return errHeaderTooLong
		}
		if _, _, end, err := field(line); err != nil || end {
			return err
		}
	}
}

// readLine returns the next line in br's buffer, its LF included; the
// slice is valid until the next read.
//
//locshort:hotpath
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch err {
	case nil:
		return line, nil
	case bufio.ErrBufferFull:
		return nil, errLongLine
	case io.EOF:
		return nil, io.ErrUnexpectedEOF
	}
	return nil, err
}

// field splits a header line, CRLF included, into its name and its value
// trimmed of spaces and tabs; an empty line ends the section. A line
// without CRLF, one starting with a space or tab (a folded line), a name
// that is not a token and a value with a control character other than
// tab are errHeaderLine.
//
//locshort:hotpath
func field(line []byte) (name, value []byte, end bool, err error) {
	line, ok := bytes.CutSuffix(line, crlf)
	if !ok {
		return nil, nil, false, errHeaderLine
	}
	if len(line) == 0 {
		return nil, nil, true, nil
	}
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return nil, nil, false, errHeaderLine
	}
	name, value = line[:colon], line[colon+1:]
	for _, c := range name {
		if !isToken(c) {
			return nil, nil, false, errHeaderLine
		}
	}
	if !validHeaderValue(value) {
		return nil, nil, false, errHeaderLine
	}
	return name, bytes.Trim(value, " \t"), false, nil
}

// parseLength parses a Content-Length value as net/http does: decimal
// digits only (strconv.ParseInt would take a sign), at most 2^63-1.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range v {
		if !isDigit(c) || n > (math.MaxInt64-int64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// hasToken reports whether the comma-separated list v names token,
// ignoring ASCII case and the spaces and tabs around each element.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var elem []byte
		elem, v, _ = bytes.Cut(v, comma)
		if equalFold(bytes.Trim(elem, " \t"), token) {
			return true
		}
	}
	return false
}

// equalFold reports whether b equals s, ignoring ASCII case.
func equalFold(b []byte, s string) bool {
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

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isToken reports whether c may appear in a header name (RFC 9110 tchar).
func isToken(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c) ||
		c < 0x80 && strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}
