// Package httpmsg implements the HTTP message layer the live SWEB nodes
// speak: request parsing, response serialization, and the handful of status
// codes an NCSA-era server uses (200, 302 for SWEB's URL redirection, 400,
// 403, 404, 500, 503). It is deliberately a from-scratch implementation in
// the spirit of the 1996 httpd, built directly on bufio over net.Conn, but
// extended with the two HTTP/1.1 features the redirection architecture
// leans on: persistent connections (so a 302 hop does not cost a second
// TCP handshake) and chunked transfer coding for bodies whose length is
// unknown when the status line goes out.
package httpmsg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Limits protect the parser from hostile or broken peers.
const (
	// MaxRequestLine bounds the "GET /path HTTP/1.0" line.
	MaxRequestLine = 8 << 10
	// MaxHeaderBytes bounds the total header block.
	MaxHeaderBytes = 32 << 10
	// MaxHeaderCount bounds the number of header fields.
	MaxHeaderCount = 100
	// MaxBodyBytes bounds request bodies (POST to CGI).
	MaxBodyBytes = 1 << 20
)

// Common status codes. (The paper's text quotes "202 ... OK. File found." —
// a typo for 200, which is what NCSA httpd actually sent.)
const (
	StatusOK                  = 200
	StatusMovedTemporarily    = 302 // SWEB's redirection vehicle
	StatusBadRequest          = 400
	StatusForbidden           = 403
	StatusNotFound            = 404
	StatusInternalServerError = 500
	StatusServiceUnavailable  = 503
)

// StatusText returns the reason phrase for the codes this server emits.
func StatusText(code int) string {
	switch code {
	case StatusOK:
		return "OK"
	case StatusMovedTemporarily:
		return "Moved Temporarily"
	case StatusNotModified:
		return "Not Modified"
	case StatusBadRequest:
		return "Bad Request"
	case StatusForbidden:
		return "Forbidden"
	case StatusNotFound:
		return "Not Found"
	case StatusInternalServerError:
		return "Internal Server Error"
	case StatusServiceUnavailable:
		return "Service Unavailable"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// Header is a case-insensitive header map; keys are stored canonicalized
// ("Content-Length"). Values keep insertion order per key.
type Header map[string][]string

// CanonicalKey converts "content-length" to "Content-Length".
func CanonicalKey(k string) string {
	b := []byte(k)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - ('a' - 'A')
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
	return string(b)
}

// Set replaces the values for key.
func (h Header) Set(key, value string) { h[CanonicalKey(key)] = []string{value} }

// Add appends a value for key.
func (h Header) Add(key, value string) {
	ck := CanonicalKey(key)
	h[ck] = append(h[ck], value)
}

// Get returns the first value for key, or "".
func (h Header) Get(key string) string {
	if vs := h[CanonicalKey(key)]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Del removes key.
func (h Header) Del(key string) { delete(h, CanonicalKey(key)) }

// Clone returns a deep copy of h (nil stays nil).
func (h Header) Clone() Header {
	if h == nil {
		return nil
	}
	out := make(Header, len(h))
	for k, vs := range h {
		out[k] = append([]string(nil), vs...)
	}
	return out
}

// hasToken reports whether the comma-separated header value v contains
// token, compared case-insensitively (the grammar of Connection and
// Transfer-Encoding values).
func hasToken(v, token string) bool {
	for len(v) > 0 {
		part := v
		if i := strings.IndexByte(v, ','); i >= 0 {
			part, v = v[:i], v[i+1:]
		} else {
			v = ""
		}
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// write serializes headers in sorted key order (deterministic output).
func (h Header) write(w *bufio.Writer) error {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range h[k] {
			if _, err := fmt.Fprintf(w, "%s: %s\r\n", k, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Request is a parsed HTTP/1.0 request.
type Request struct {
	Method string // "GET", "HEAD", "POST"
	// Path is the decoded absolute path, query string stripped.
	Path string
	// Query is the raw query string (without '?'), "" if none.
	Query  string
	Proto  string // "HTTP/1.0" or "HTTP/1.1"
	Header Header
	Body   []byte // POST payload, nil otherwise
}

// ParseError marks a malformed message; servers answer 400.
type ParseError struct{ Reason string }

func (e *ParseError) Error() string { return "httpmsg: " + e.Reason }

func parseErrf(format string, args ...any) error {
	return &ParseError{Reason: fmt.Sprintf(format, args...)}
}

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br, MaxRequestLine)
	if err != nil {
		return nil, err
	}
	parts := strings.Fields(line)
	if len(parts) != 3 {
		return nil, parseErrf("malformed request line %q", line)
	}
	method, target, proto := parts[0], parts[1], parts[2]
	switch method {
	case "GET", "HEAD", "POST":
	default:
		return nil, parseErrf("unsupported method %q", method)
	}
	if proto != "HTTP/1.0" && proto != "HTTP/1.1" && proto != "HTTP/0.9" {
		return nil, parseErrf("unsupported protocol %q", proto)
	}
	req := &Request{Method: method, Proto: proto, Header: Header{}}
	// Accept absolute URLs (proxy-style) by stripping the scheme+host.
	if _, t, ok := SplitLocation(target); ok {
		target = t
	}
	if !strings.HasPrefix(target, "/") {
		return nil, parseErrf("request target %q is not absolute", target)
	}
	if q := strings.IndexByte(target, '?'); q >= 0 {
		req.Query = target[q+1:]
		target = target[:q]
	}
	req.Path, err = decodePath(target)
	if err != nil {
		return nil, err
	}
	if err := readHeaders(br, req.Header); err != nil {
		return nil, err
	}
	if method == "POST" {
		n, err := strconv.Atoi(strings.TrimSpace(req.Header.Get("Content-Length")))
		if err != nil || n < 0 {
			return nil, parseErrf("POST without a valid Content-Length")
		}
		if n > MaxBodyBytes {
			return nil, parseErrf("request body of %d bytes exceeds limit", n)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, parseErrf("short request body: %v", err)
		}
		req.Body = body
	}
	return req, nil
}

// Write serializes the request (client side).
func (r *Request) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	target := escapePath(r.Path)
	if r.Query != "" {
		target += "?" + r.Query
	}
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.0"
	}
	if _, err := fmt.Fprintf(bw, "%s %s %s\r\n", r.Method, target, proto); err != nil {
		return err
	}
	h := r.Header
	if h == nil {
		h = Header{}
	}
	if r.Body != nil {
		// Clone before stamping Content-Length: callers share one Header
		// map across retries and across requests, and must not see it grow.
		h = h.Clone()
		h.Set("Content-Length", strconv.Itoa(len(r.Body)))
	}
	if err := h.write(bw); err != nil {
		return err
	}
	if _, err := bw.WriteString("\r\n"); err != nil {
		return err
	}
	if r.Body != nil {
		if _, err := bw.Write(r.Body); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// KeepAlive reports whether the client asked for the connection to stay
// open after this request: the default on HTTP/1.1 unless "Connection:
// close", and on HTTP/1.0 only with an explicit "Connection: keep-alive"
// token.
func (r *Request) KeepAlive() bool {
	conn := r.Header.Get("Connection")
	switch r.Proto {
	case "HTTP/1.1":
		return !hasToken(conn, "close")
	case "HTTP/1.0":
		return hasToken(conn, "keep-alive")
	}
	return false
}

// Response is a parsed or to-be-written HTTP response.
type Response struct {
	Proto      string
	StatusCode int
	Status     string // reason phrase
	Header     Header
	// Body is the full body for parsed responses. When writing, use
	// WriteProtoResponseHeader followed by direct writes for streaming.
	Body []byte
}

// ReadResponseHeader parses the status line and headers only, leaving the
// body unread on br — what a HEAD client or a streaming relay needs.
func ReadResponseHeader(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br, MaxRequestLine)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, parseErrf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, parseErrf("bad status code in %q", line)
	}
	resp := &Response{Proto: parts[0], StatusCode: code, Header: Header{}}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	if err := readHeaders(br, resp.Header); err != nil {
		return nil, err
	}
	return resp, nil
}

// KeepAlive reports whether the server left the connection open after this
// response: "Connection: close" always spends it, HTTP/1.1 defaults to
// open, HTTP/1.0 needs the explicit keep-alive token. Callers must also
// check SelfDelimited — an EOF-bounded body spends the connection anyway.
func (r *Response) KeepAlive() bool {
	conn := r.Header.Get("Connection")
	if hasToken(conn, "close") {
		return false
	}
	if r.Proto == "HTTP/1.1" {
		return true
	}
	return hasToken(conn, "keep-alive")
}

// Chunked reports whether the response body uses chunked transfer coding.
func (r *Response) Chunked() bool {
	return hasToken(r.Header.Get("Transfer-Encoding"), "chunked")
}

// SelfDelimited reports whether the response advertises its own body
// length (Content-Length or chunked), i.e. whether a reader can find the
// boundary of the next response on the same connection.
func (r *Response) SelfDelimited() bool {
	return r.Header.Get("Content-Length") != "" || r.Chunked()
}

// ReadResponse parses a full response, including the body (bounded by
// limit bytes; pass <=0 for no limit beyond Content-Length).
func ReadResponse(br *bufio.Reader, limit int64) (*Response, error) {
	resp, err := ReadResponseHeader(br)
	if err != nil {
		return nil, err
	}
	if err := readBody(br, resp, limit); err != nil {
		return nil, err
	}
	return resp, nil
}

// validProto clamps a protocol version to the two response lines this
// server emits; anything unrecognized downgrades to HTTP/1.0.
func validProto(proto string) string {
	if proto == "HTTP/1.1" {
		return proto
	}
	return "HTTP/1.0"
}

// WriteProtoResponseHeader writes the status line (under the given
// protocol version) and headers; the caller then streams the body.
func WriteProtoResponseHeader(w *bufio.Writer, proto string, code int, h Header) error {
	if h == nil {
		h = Header{}
	}
	if h.Get("Date") == "" {
		h.Set("Date", time.Now().UTC().Format(time.RFC1123))
	}
	if h.Get("Server") == "" {
		h.Set("Server", "SWEB/1.0 (NCSA-derived)")
	}
	if _, err := fmt.Fprintf(w, "%s %d %s\r\n", validProto(proto), code, StatusText(code)); err != nil {
		return err
	}
	if err := h.write(w); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

// WriteProtoSimpleResponse writes a complete small response (errors,
// redirects) under the given protocol version.
func WriteProtoSimpleResponse(w io.Writer, proto string, code int, h Header, body []byte) error {
	bw := bufio.NewWriter(w)
	if h == nil {
		h = Header{}
	}
	if h.Get("Content-Type") == "" {
		h.Set("Content-Type", "text/html")
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if err := WriteProtoResponseHeader(bw, proto, code, h); err != nil {
		return err
	}
	if _, err := bw.Write(body); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSimpleResponse is WriteProtoSimpleResponse pinned to HTTP/1.0.
func WriteSimpleResponse(w io.Writer, code int, h Header, body []byte) error {
	return WriteProtoSimpleResponse(w, "HTTP/1.0", code, h, body)
}

// ErrorBody renders the little HTML page NCSA httpd sends with an error.
func ErrorBody(code int, detail string) []byte {
	return []byte(fmt.Sprintf(
		"<HEAD><TITLE>%d %s</TITLE></HEAD>\n<BODY><H1>%d %s</H1>\n%s\n</BODY>\n",
		code, StatusText(code), code, StatusText(code), detail))
}

// readLine reads a CRLF- or LF-terminated line of at most max bytes. A
// clean close before any byte arrives surfaces as bare io.EOF (how a
// keep-alive loop sees the peer hang up between requests); a close after a
// partial line is a ParseError — the fragment is a truncated message, not
// a complete line.
func readLine(br *bufio.Reader, max int) (string, error) {
	chunk, err := br.ReadString('\n')
	if len(chunk) > max {
		return "", parseErrf("line exceeds %d bytes", max)
	}
	if err != nil {
		if err == io.EOF && len(chunk) == 0 {
			return "", io.EOF
		}
		if err == io.EOF {
			return "", parseErrf("connection closed mid-line after %d bytes", len(chunk))
		}
		return "", err
	}
	return strings.TrimRight(chunk, "\r\n"), nil
}

func readHeaders(br *bufio.Reader, h Header) error {
	total, count := 0, 0
	for {
		line, err := readLine(br, MaxRequestLine)
		if err != nil {
			return parseErrf("reading headers: %v", err)
		}
		if line == "" {
			return nil
		}
		total += len(line)
		count++
		if total > MaxHeaderBytes {
			return parseErrf("header block exceeds %d bytes", MaxHeaderBytes)
		}
		if count > MaxHeaderCount {
			return parseErrf("more than %d header fields", MaxHeaderCount)
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return parseErrf("malformed header line %q", line)
		}
		key := strings.TrimSpace(line[:colon])
		if key == "" || strings.ContainsAny(key, " \t") {
			return parseErrf("malformed header name %q", key)
		}
		h.Add(key, strings.TrimSpace(line[colon+1:]))
	}
}
