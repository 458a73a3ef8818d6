package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"time"

	"locshort/internal/wire"
)

// conn is a minimal HTTP/1.1 keep-alive client for the timed loop: one
// TCP connection, a request written in a single call, and a response
// parser that keeps only the status, the length and the X-Locshort-*
// headers. net/http's client spends about as much CPU per request as the
// daemon does; with two vCPUs that contention showed up in every number
// the benchmark takes.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

// Response headers the loop reads; everything else is skipped.
var (
	hdrContentLength    = []byte("content-length")
	hdrTransferEncoding = []byte("transfer-encoding")
	hdrKey              = []byte("x-locshort-key")
	hdrGraph            = []byte("x-locshort-graph")
	hdrSource           = []byte("x-locshort-source")
	hdrServedBy         = []byte("x-locshort-served-by")
)

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// post sends one POST and reads the whole answer. The returned body is
// valid until the next call. A broken connection is redialed once.
func (c *conn) post(path string, binary bool, payload []byte) (response, error) {
	c.req = c.req[:0]
	c.req = append(c.req, "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	if binary {
		c.req = append(c.req, "\r\nContent-Type: "+wire.ContentType+"\r\nAccept: "+wire.ContentType...)
	} else {
		c.req = append(c.req, "\r\nContent-Type: application/json"...)
	}
	c.req = append(c.req, "\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(payload)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, payload...)
	for attempt := 0; ; attempt++ {
		if c.c == nil {
			nc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
			if err != nil {
				return response{}, err
			}
			c.c = nc
			if c.r == nil {
				c.r = bufio.NewReaderSize(nc, 64<<10)
			} else {
				c.r.Reset(nc)
			}
		}
		resp, err := c.roundTrip()
		if err == nil {
			return resp, nil
		}
		c.close()
		// A keep-alive connection the server closed fails on first use;
		// anything else, or a second failure, is an error.
		if attempt > 0 || !errors.Is(err, io.EOF) {
			return response{}, err
		}
	}
}

func (c *conn) roundTrip() (response, error) {
	if err := c.c.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return response{}, err
	}
	if _, err := c.c.Write(c.req); err != nil {
		return response{}, err
	}
	line, err := c.line()
	if err != nil {
		return response{}, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return response{}, fmt.Errorf("malformed status line %q", line)
	}
	var resp response
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return response{}, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := c.line()
		if err != nil {
			return response{}, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return response{}, fmt.Errorf("malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, hdrContentLength):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return response{}, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, hdrTransferEncoding):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, hdrKey):
			resp.key = string(value)
		case bytes.EqualFold(name, hdrGraph):
			resp.graph = string(value)
		case bytes.EqualFold(name, hdrSource):
			resp.source = string(value)
		case bytes.EqualFold(name, hdrServedBy):
			resp.servedBy = string(value)
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		c.body = grow(c.body, length)
		_, err = io.ReadFull(c.r, c.body)
	default:
		err = errors.New("response without length")
	}
	if err != nil {
		return response{}, err
	}
	resp.body = c.body
	return resp, nil
}

// line reads one CRLF-terminated line without its terminator; the slice is
// valid until the next read.
func (c *conn) line() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func (c *conn) readChunked() error {
	for {
		line, err := c.line()
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(line, []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 32)
		if err != nil || n < 0 {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if n == 0 {
			// Trailers, then the blank line.
			for {
				line, err := c.line()
				if err != nil {
					return err
				}
				if len(line) == 0 {
					return nil
				}
			}
		}
		start := len(c.body)
		c.body = grow(c.body, int(n))
		if _, err := io.ReadFull(c.r, c.body[start:]); err != nil {
			return err
		}
		if _, err := c.line(); err != nil {
			return err
		}
	}
}

// grow extends b by n bytes, reusing its capacity.
func grow(b []byte, n int) []byte {
	b = slices.Grow(b, n)
	return b[:len(b)+n]
}
