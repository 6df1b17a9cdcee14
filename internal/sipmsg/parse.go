package sipmsg

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse errors. ErrIncomplete wraps Parse's report of a truncated datagram
// (no blank line, or fewer body bytes than Content-Length); the stream
// Reader waits for more bytes instead.
var (
	ErrIncomplete = errors.New("sipmsg: incomplete message")
	ErrTooLarge   = errors.New("sipmsg: message exceeds size limit")
)

// Limits applied during parsing. SIP messages in the studied workloads are
// a few hundred bytes; these bounds protect the proxy from hostile input.
const (
	MaxHeaderBytes = 32 << 10 // maximum size of the start line + headers
	MaxBodyBytes   = 64 << 10 // maximum Content-Length accepted
	MaxHeaderCount = 128      // maximum number of header fields
)

var crlfcrlf = []byte("\r\n\r\n")

// Parse parses a complete SIP message from a datagram. The entire buffer
// must contain exactly the headers and, if Content-Length is present, at
// least that many body bytes (trailing bytes beyond Content-Length are
// ignored, matching RFC 3261 §18.3 for UDP).
//
// The returned Message comes from the package pool: it holds one retained
// copy of the head bytes (header names, values, and URI components are
// views into it) and a message-owned copy of the body. Callers that finish
// with the message should Release it; strings obtained from it stay valid
// past the Release.
func Parse(data []byte) (*Message, error) {
	headEnd := bytes.Index(data, crlfcrlf)
	if headEnd < 0 {
		return nil, fmt.Errorf("%w: no header terminator", ErrIncomplete)
	}
	if headEnd > MaxHeaderBytes {
		return nil, ErrTooLarge
	}
	m := Get()
	// The single copy: everything before the blank line becomes an
	// immutable string the parsed views alias.
	body := data[headEnd+4:]
	n, err := parseFrame(m, string(data[:headEnd]), len(body))
	if err != nil {
		m.Release()
		return nil, err
	}
	if n > 0 {
		m.bodyBuf = append(m.bodyBuf[:0], body[:n]...)
		m.Body = m.bodyBuf
	}
	return m, nil
}

// ParseBuilt parses a complete message held as wire text into a built
// message: not pooled, owned by the garbage collector like one from
// NewResponse or Clone, so it may be handed to a proxy.Sender and needs no
// Release. Header views alias wire itself, which strings keep immutable;
// the body is copied. The transaction table rebuilds a final it keeps only
// as wire text this way when a retransmitted request asks for a replay.
func ParseBuilt(wire string) (*Message, error) {
	headEnd := strings.Index(wire, "\r\n\r\n")
	if headEnd < 0 {
		return nil, fmt.Errorf("%w: no header terminator", ErrIncomplete)
	}
	if headEnd > MaxHeaderBytes {
		return nil, ErrTooLarge
	}
	m := &Message{}
	body := wire[headEnd+4:]
	n, err := parseFrame(m, wire[:headEnd], len(body))
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Body = []byte(body[:n])
	}
	return m, nil
}

// parseFrame parses head into m and returns how many of the rest bytes
// after the blank line are the body: Content-Length of them, or all when
// the header is absent.
func parseFrame(m *Message, head string, rest int) (int, error) {
	clen, err := parseHeadStr(m, head)
	if err != nil {
		return 0, err
	}
	if clen < 0 {
		return rest, nil
	}
	if rest < clen {
		return 0, fmt.Errorf("%w: body %d < Content-Length %d", ErrIncomplete, rest, clen)
	}
	return clen, nil
}

// parseHeadStr parses the start line and headers from head (the retained
// copy of everything before the blank line) into m, storing header names
// and values as substrings of it. It returns the declared Content-Length
// (-1 when absent).
func parseHeadStr(m *Message, head string) (int, error) {
	m.raw = head
	// A modest default capacity covers the workload's messages; pooled
	// messages keep their grown slice across cycles.
	if cap(m.Headers) < 16 {
		m.Headers = make([]Header, 0, 16)
	} else {
		m.Headers = m.Headers[:0]
	}
	clen := -1
	sawStart := false
	count := 0
	for pos := 0; pos < len(head); {
		// Line end: the first '\n' preceded by '\r'. A lone '\n' stays in
		// the line content (the old strings.Split on "\r\n" semantics).
		var line string
		rest := head[pos:]
		nl := strings.IndexByte(rest, '\n')
		for nl >= 0 && (nl == 0 || rest[nl-1] != '\r') {
			j := strings.IndexByte(rest[nl+1:], '\n')
			if j < 0 {
				nl = -1
				break
			}
			nl += 1 + j
		}
		if nl >= 0 {
			line = rest[:nl-1]
			pos += nl + 1
		} else {
			line = rest
			pos = len(head)
		}
		if line == "" {
			continue // tolerate stray CRLF before the start line
		}
		if line[0] == ' ' || line[0] == '\t' {
			if !sawStart {
				return 0, fmt.Errorf("sipmsg: continuation line before first header")
			}
			// Folded continuation (rare): reparse the whole head on the
			// unfolding slow path.
			m.Headers = m.Headers[:0]
			return parseHeadFolded(m, head)
		}
		if !sawStart {
			if err := parseStartLineInto(m, line); err != nil {
				return 0, err
			}
			sawStart = true
			continue
		}
		count++
		if count > MaxHeaderCount {
			return 0, fmt.Errorf("sipmsg: too many headers (%d)", count)
		}
		if err := parseHeaderLine(m, line, &clen); err != nil {
			return 0, err
		}
	}
	if !sawStart {
		return 0, fmt.Errorf("sipmsg: empty message")
	}
	return clen, nil
}

// parseHeadFolded is the slow path for messages with folded continuation
// lines (RFC 3261 §7.3.1): it materializes unfolded line strings, so it
// allocates, but folded headers are absent from the studied workloads.
func parseHeadFolded(m *Message, head string) (int, error) {
	var lines []string
	for _, ln := range strings.Split(head, "\r\n") {
		if ln == "" {
			continue
		}
		if ln[0] == ' ' || ln[0] == '\t' {
			if len(lines) == 0 {
				return 0, fmt.Errorf("sipmsg: continuation line before first header")
			}
			lines[len(lines)-1] += " " + strings.TrimSpace(ln)
			continue
		}
		lines = append(lines, ln)
	}
	if len(lines) == 0 {
		return 0, fmt.Errorf("sipmsg: empty message")
	}
	if len(lines)-1 > MaxHeaderCount {
		return 0, fmt.Errorf("sipmsg: too many headers (%d)", len(lines)-1)
	}
	if err := parseStartLineInto(m, lines[0]); err != nil {
		return 0, err
	}
	clen := -1
	for _, ln := range lines[1:] {
		if err := parseHeaderLine(m, ln, &clen); err != nil {
			return 0, err
		}
	}
	return clen, nil
}

// parseHeaderLine parses one unfolded "Name: value" line into m.Headers,
// diverting Content-Length into *clen.
func parseHeaderLine(m *Message, ln string, clen *int) error {
	colon := strings.IndexByte(ln, ':')
	if colon <= 0 {
		return fmt.Errorf("sipmsg: malformed header line %q", ln)
	}
	// RFC 3261 permits whitespace between the field name and the colon;
	// names almost never carry it, so trim with a byte loop.
	nameEnd := colon
	for nameEnd > 0 && (ln[nameEnd-1] == ' ' || ln[nameEnd-1] == '\t') {
		nameEnd--
	}
	if !isHeaderToken(ln[:nameEnd]) {
		return fmt.Errorf("sipmsg: invalid header name in %q", ln)
	}
	name := canonicalName(ln[:nameEnd])
	value := trimASCII(ln[colon+1:])
	switch name {
	case "Content-Length":
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return fmt.Errorf("sipmsg: bad Content-Length %q", value)
		}
		if n > MaxBodyBytes {
			return ErrTooLarge
		}
		*clen = n
		return nil // re-added canonically at serialization time
	case "Via", "Route", "Record-Route", "Contact":
		// Multi-value headers like "Via: a, b" are split so the proxy can
		// push/pop individual Via entries.
		appendCommaSplit(m, name, value)
		return nil
	}
	m.Headers = append(m.Headers, Header{Name: name, Value: value})
	return nil
}

// appendCommaSplit appends one header per comma-separated part of value,
// ignoring commas inside double quotes or angle brackets. Parts are
// appended directly (empty parts included) so no intermediate slice is
// allocated.
func appendCommaSplit(m *Message, name, value string) {
	if strings.IndexByte(value, ',') < 0 {
		// Single value (the overwhelmingly common case): no scan needed.
		m.Headers = append(m.Headers, Header{Name: name, Value: value})
		return
	}
	depth, start := 0, 0
	inQuote := false
	for i := 0; i < len(value); i++ {
		switch value[i] {
		case '"':
			inQuote = !inQuote
		case '<':
			if !inQuote {
				depth++
			}
		case '>':
			if !inQuote && depth > 0 {
				depth--
			}
		case ',':
			if !inQuote && depth == 0 {
				m.Headers = append(m.Headers, Header{Name: name, Value: trimASCII(value[start:i])})
				start = i + 1
			}
		}
	}
	m.Headers = append(m.Headers, Header{Name: name, Value: trimASCII(value[start:])})
}

// trimASCII returns s without leading or trailing ASCII whitespace. Header
// values reach this already line-split, so this matches strings.TrimSpace
// for the byte-oriented inputs the parser sees, without its Unicode setup.
func trimASCII(s string) string {
	start := 0
	for start < len(s) && asciiSpace(s[start]) {
		start++
	}
	end := len(s)
	for end > start && asciiSpace(s[end-1]) {
		end--
	}
	return s[start:end]
}

func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// isHeaderToken reports whether s is a legal RFC 3261 header field name
// (a token: no whitespace or separators).
func isHeaderToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '.' || c == '_' || c == '!' || c == '%' ||
			c == '*' || c == '+' || c == '`' || c == '\'' || c == '~':
		default:
			return false
		}
	}
	return true
}

// parseStartLineInto parses a request or status line into m.
func parseStartLineInto(m *Message, line string) error {
	if strings.HasPrefix(line, SIPVersion+" ") {
		// Status line: SIP/2.0 200 OK
		rest := line[len(SIPVersion)+1:]
		sp := strings.IndexByte(rest, ' ')
		codeStr, reason := rest, ""
		if sp >= 0 {
			codeStr, reason = rest[:sp], rest[sp+1:]
		}
		code, err := strconv.Atoi(codeStr)
		if err != nil || code < 100 || code > 699 {
			return fmt.Errorf("sipmsg: bad status line %q", line)
		}
		m.IsRequest = false
		m.StatusCode = code
		m.Reason = reason
		return nil
	}
	// Request line: INVITE sip:bob@example.com SIP/2.0
	// Manual three-field split (on SP/HT runs) to avoid strings.Fields'
	// slice allocation.
	var fields [3]string
	n := 0
	for i := 0; i < len(line); {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if n == 3 {
			return fmt.Errorf("sipmsg: bad request line %q", line)
		}
		fields[n] = line[start:i]
		n++
	}
	if n != 3 {
		return fmt.Errorf("sipmsg: bad request line %q", line)
	}
	if fields[2] != SIPVersion {
		return fmt.Errorf("sipmsg: unsupported version %q", fields[2])
	}
	method := Method(strings.ToUpper(fields[0]))
	if !method.IsValid() {
		return fmt.Errorf("sipmsg: unsupported method %q", fields[0])
	}
	uri, err := ParseURI(fields[1])
	if err != nil {
		return err
	}
	m.IsRequest = true
	m.Method = method
	m.RequestURI = uri
	return nil
}
