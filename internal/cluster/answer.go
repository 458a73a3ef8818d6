package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http/httputil"

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

// Ways a peer answer is malformed, besides the header line errors of
// internal/wire's field grammar. Each is the peer's failure, like a
// refused dial.
var (
	errStatusLine    = errors.New("cluster: malformed peer answer status line")
	errContentLength = errors.New("cluster: malformed peer answer Content-Length")
	errFraming       = errors.New("cluster: unsupported peer answer framing")
)

var crlf = []byte("\r\n")

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
// more than wire.MaxFields header lines, header names with a space,
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
			err = wire.ReadTrailer(br)
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
	line, err := wire.ReadLine(br)
	if err != nil {
		return hd, err
	}
	// HTTP/1.x SP three digits, then SP and a reason phrase, or nothing.
	line, ok := bytes.CutSuffix(line, crlf)
	if !ok || len(line) < 12 || string(line[:7]) != "HTTP/1." || !wire.IsDigit(line[7]) || line[8] != ' ' ||
		!wire.IsDigit(line[9]) || !wire.IsDigit(line[10]) || !wire.IsDigit(line[11]) || len(line) > 12 && line[12] != ' ' {
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
		line, err := wire.ReadLine(br)
		if err != nil {
			return hd, err
		}
		name, value, end, err := wire.Field(line)
		switch {
		case err != nil:
			return hd, err
		case end:
			break fields
		case n == wire.MaxFields:
			return hd, wire.ErrHeaderTooLong
		case wire.EqualFold(name, "Transfer-Encoding"):
			// net/http takes exactly one, naming chunked alone.
			if transfer || !wire.EqualFold(value, "chunked") {
				return hd, errFraming
			}
			transfer = true
		case wire.EqualFold(name, "Connection"):
			closing = closing || wire.HasToken(value, "close")
		case wire.EqualFold(name, "Trailer"):
			// net/http refuses these as trailer fields.
			if wire.HasToken(value, "Transfer-Encoding") || wire.HasToken(value, "Trailer") || wire.HasToken(value, "Content-Length") {
				return hd, errFraming
			}
		}
		i := 0
		for i < len(AnswerHeaders) && !wire.EqualFold(name, AnswerHeaders[i]) {
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
			if hd.length, ok = wire.ParseLength(value); !ok {
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
