package sipmsg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// URI is a parsed SIP URI of the form
//
//	sip:user@host:port;param=value;flag
//
// Only the sip: scheme is supported (sips/TLS is out of scope for this
// reproduction, matching the paper's "without the use of TLS" setup).
type URI struct {
	User   string
	Host   string
	Port   int               // 0 means unspecified (default 5060)
	Params map[string]string // flag params have value ""
}

// DefaultSIPPort is the well-known SIP port assumed when a URI or hostport
// omits an explicit port.
const DefaultSIPPort = 5060

// ParseURI parses a SIP URI. The scheme prefix "sip:" is required.
func ParseURI(s string) (URI, error) {
	s = strings.TrimSpace(s)
	rest, ok := strings.CutPrefix(s, "sip:")
	if !ok {
		return URI{}, fmt.Errorf("sipmsg: URI %q: missing sip: scheme", s)
	}
	var u URI
	// Split off params first (they follow the hostport).
	var paramsPart string
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		rest, paramsPart = rest[:i], rest[i+1:]
	}
	// user@hostport
	if i := strings.LastIndexByte(rest, '@'); i >= 0 {
		u.User = rest[:i]
		rest = rest[i+1:]
	}
	host, port, err := splitHostPort(rest)
	if err != nil {
		return URI{}, fmt.Errorf("sipmsg: URI %q: %v", s, err)
	}
	if host == "" {
		return URI{}, fmt.Errorf("sipmsg: URI %q: empty host", s)
	}
	u.Host, u.Port = host, port
	if paramsPart != "" {
		u.Params = parseParams(paramsPart)
	}
	return u, nil
}

// splitHostPort splits "host[:port]", supporting bracketed IPv6 literals.
func splitHostPort(s string) (string, int, error) {
	if s == "" {
		return "", 0, nil
	}
	if s[0] == '[' {
		end := strings.IndexByte(s, ']')
		if end < 0 {
			return "", 0, fmt.Errorf("unterminated IPv6 literal")
		}
		host := s[:end+1]
		rest := s[end+1:]
		if rest == "" {
			return host, 0, nil
		}
		if rest[0] != ':' {
			return "", 0, fmt.Errorf("garbage after IPv6 literal: %q", rest)
		}
		p, err := strconv.Atoi(rest[1:])
		if err != nil || p < 0 || p > 65535 {
			return "", 0, fmt.Errorf("bad port %q", rest[1:])
		}
		return host, p, nil
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		p, err := strconv.Atoi(s[i+1:])
		if err != nil || p < 0 || p > 65535 {
			return "", 0, fmt.Errorf("bad port %q", s[i+1:])
		}
		return s[:i], p, nil
	}
	return s, 0, nil
}

// parseParams parses ";"-separated key[=value] parameters. Keys are
// lowercased; values keep their case.
func parseParams(s string) map[string]string {
	params := make(map[string]string)
	for _, kv := range strings.Split(s, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		if i := strings.IndexByte(kv, '='); i >= 0 {
			params[strings.ToLower(kv[:i])] = kv[i+1:]
		} else {
			params[strings.ToLower(kv)] = ""
		}
	}
	return params
}

// formatParams renders params deterministically (sorted) so serialization
// is stable for round-trip tests.
func formatParams(params map[string]string) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteByte(';')
		b.WriteString(k)
		if v := params[k]; v != "" {
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
	return b.String()
}

// appendTo appends the canonical URI form to buf. It matches String()
// byte-for-byte but avoids the strings.Builder allocations on the
// serialization fast path.
func (u URI) appendTo(buf []byte) []byte {
	buf = append(buf, "sip:"...)
	if u.User != "" {
		buf = append(buf, u.User...)
		buf = append(buf, '@')
	}
	buf = append(buf, u.Host...)
	if u.Port != 0 {
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(u.Port), 10)
	}
	return appendParams(buf, u.Params)
}

// appendParams renders params deterministically (sorted), allocating the
// key slice only when there are two or more parameters.
func appendParams(buf []byte, params map[string]string) []byte {
	switch len(params) {
	case 0:
		return buf
	case 1:
		for k, v := range params {
			buf = append(buf, ';')
			buf = append(buf, k...)
			if v != "" {
				buf = append(buf, '=')
				buf = append(buf, v...)
			}
		}
		return buf
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf = append(buf, ';')
		buf = append(buf, k...)
		if v := params[k]; v != "" {
			buf = append(buf, '=')
			buf = append(buf, v...)
		}
	}
	return buf
}

// AppendTo appends the canonical URI form to buf — the same bytes as
// String(), without the builder allocations.
func (u URI) AppendTo(buf []byte) []byte { return u.appendTo(buf) }

// String renders the URI in canonical form.
func (u URI) String() string {
	var b strings.Builder
	b.WriteString("sip:")
	if u.User != "" {
		b.WriteString(u.User)
		b.WriteByte('@')
	}
	b.WriteString(u.Host)
	if u.Port != 0 {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(u.Port))
	}
	b.WriteString(formatParams(u.Params))
	return b.String()
}

// HostPort renders "host:port" using the default SIP port when unset;
// suitable for net.Dial-style addresses.
func (u URI) HostPort() string {
	p := u.Port
	if p == 0 {
		p = DefaultSIPPort
	}
	return joinHostPort(u.Host, p)
}

func joinHostPort(host string, port int) string {
	if strings.Contains(host, ":") && !strings.HasPrefix(host, "[") {
		return "[" + host + "]:" + strconv.Itoa(port)
	}
	return host + ":" + strconv.Itoa(port)
}

// AOR returns the address-of-record key ("user@host") used by the location
// service; port and params are excluded per RFC 3261 §10.3.
func (u URI) AOR() string {
	if u.User == "" {
		return strings.ToLower(u.Host)
	}
	return u.User + "@" + strings.ToLower(u.Host)
}

// NameAddr is a From/To/Contact-style header value: an optional display
// name, a URI (possibly in angle brackets), and header parameters such as
// the RFC 3261 tag.
type NameAddr struct {
	Display string
	URI     URI
	Params  map[string]string
}

// ParseNameAddr parses a name-addr or addr-spec with optional parameters.
//
//	"Alice" <sip:alice@a.example>;tag=1928301774
//	<sip:bob@b.example>
//	sip:bob@b.example;tag=x   (addr-spec form: params belong to the header)
func ParseNameAddr(s string) (NameAddr, error) {
	s = strings.TrimSpace(s)
	var na NameAddr
	if i := strings.IndexByte(s, '<'); i >= 0 {
		end := strings.IndexByte(s, '>')
		if end < i {
			return na, fmt.Errorf("sipmsg: name-addr %q: unbalanced angle brackets", s)
		}
		na.Display = strings.Trim(strings.TrimSpace(s[:i]), `"`)
		uri, err := ParseURI(s[i+1 : end])
		if err != nil {
			return na, err
		}
		na.URI = uri
		if rest := strings.TrimSpace(s[end+1:]); rest != "" {
			rest = strings.TrimPrefix(rest, ";")
			na.Params = parseParams(rest)
		}
		return na, nil
	}
	// addr-spec form: any ";" params belong to the header, not the URI.
	uriPart := s
	if i := strings.IndexByte(s, ';'); i >= 0 {
		uriPart = s[:i]
		na.Params = parseParams(s[i+1:])
	}
	uri, err := ParseURI(uriPart)
	if err != nil {
		return na, err
	}
	na.URI = uri
	return na, nil
}

// String renders the NameAddr in angle-bracket form.
func (na NameAddr) String() string {
	var b strings.Builder
	if na.Display != "" {
		b.WriteByte('"')
		b.WriteString(na.Display)
		b.WriteString(`" `)
	}
	b.WriteByte('<')
	b.WriteString(na.URI.String())
	b.WriteByte('>')
	b.WriteString(formatParams(na.Params))
	return b.String()
}

// WithTag returns a copy of na with the tag parameter set.
func (na NameAddr) WithTag(tag string) NameAddr {
	out := na
	out.Params = make(map[string]string, len(na.Params)+1)
	for k, v := range na.Params {
		out.Params[k] = v
	}
	out.Params["tag"] = tag
	return out
}

// Via is a parsed Via header value:
//
//	SIP/2.0/UDP host:port;branch=z9hG4bK...;received=...
type Via struct {
	Transport string // "UDP", "TCP", ...
	Host      string
	Port      int
	Params    map[string]string
}

// ParseVia parses a single Via header value.
func ParseVia(s string) (Via, error) {
	v, params, err := parseViaHead(s)
	if err == nil && params != "" {
		v.Params = parseParams(params)
	}
	return v, err
}

// parseViaHead parses everything of a Via value but its parameters, which
// it returns unparsed (without the leading ';').
func parseViaHead(s string) (v Via, params string, err error) {
	s = strings.TrimSpace(s)
	rest, ok := strings.CutPrefix(s, "SIP/2.0/")
	if !ok {
		return v, "", fmt.Errorf("sipmsg: Via %q: missing SIP/2.0/ prefix", s)
	}
	sp := strings.IndexAny(rest, " \t")
	if sp < 0 {
		return v, "", fmt.Errorf("sipmsg: Via %q: missing sent-by", s)
	}
	v.Transport = strings.ToUpper(rest[:sp])
	rest = strings.TrimSpace(rest[sp+1:])
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		rest, params = rest[:i], rest[i+1:]
	}
	host, port, err := splitHostPort(strings.TrimSpace(rest))
	if err != nil {
		return v, "", fmt.Errorf("sipmsg: Via %q: %v", s, err)
	}
	v.Host, v.Port = host, port
	return v, params, nil
}

// viaBranch returns the branch parameter of a Via header value ("" when it
// has none) — what ParseVia(s) followed by Branch() returns, malformed
// values rejected alike, without building the parameter map. Transaction
// matching needs nothing else of a Via, and does this once per message.
func viaBranch(s string) (string, error) {
	_, params, err := parseViaHead(s)
	if err != nil {
		return "", err
	}
	return paramValue(params, "branch"), nil
}

// paramValue scans ";"-separated parameters for name and returns what
// parseParams(s)[name] would: the last occurrence wins, a flag parameter
// reads as "". Keys compare by EqualFold where parseParams lowercases them;
// the two differ only on U+017F, U+0130 and U+212A, which fold to s, i and
// k — letters "branch", the one name looked up this way, does not have.
func paramValue(s, name string) string {
	val := ""
	for s != "" {
		kv := s
		if i := strings.IndexByte(s, ';'); i >= 0 {
			kv, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		kv = strings.TrimSpace(kv)
		key, v := kv, ""
		if i := strings.IndexByte(kv, '='); i >= 0 {
			key, v = kv[:i], kv[i+1:]
		}
		if strings.EqualFold(key, name) {
			val = v
		}
	}
	return val
}

// Branch returns the branch parameter, or "".
func (v Via) Branch() string { return v.Params["branch"] }

// String renders the Via header value.
func (v Via) String() string {
	var b [128]byte
	buf := append(b[:0], "SIP/2.0/"...)
	buf = append(buf, v.Transport...)
	buf = append(buf, ' ')
	buf = append(buf, v.Host...)
	if v.Port != 0 {
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(v.Port), 10)
	}
	return string(appendParams(buf, v.Params))
}

// SentBy returns the "host:port" the Via names, defaulting the port.
func (v Via) SentBy() string {
	p := v.Port
	if p == 0 {
		p = DefaultSIPPort
	}
	return joinHostPort(v.Host, p)
}
