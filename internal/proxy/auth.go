package proxy

import (
	"crypto/md5"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"strings"
	"unicode/utf8"

	"gosip/internal/sipmsg"
	"gosip/internal/trace"
)

// Digest authentication (RFC 2617 as profiled by RFC 3261 §22), the
// configuration Nahum et al. found to have the largest performance impact
// on SIP servers because every challenge verification costs a user-
// database lookup. Registrars challenge with 401 WWW-Authenticate; proxies
// challenge other requests with 407 Proxy-Authenticate.

// nonceSecret seeds stateless nonce generation: the nonce for a request is
// a deterministic digest of the Call-ID, so verification needs no server
// state. A production deployment would rotate this.
const nonceSecret = "gosip-nonce-secret-v1"

// DigestNonce derives the challenge nonce for a request.
func DigestNonce(callID string) string {
	var b [2 * md5.Size]byte
	return string(appendDigestNonce(b[:0], callID))
}

// appendDigestNonce appends the hex nonce for callID to dst:
// MD5(nonceSecret ":" Call-ID), hashed from a stack buffer.
func appendDigestNonce(dst []byte, callID string) []byte {
	var b [128]byte
	sum := md5.Sum(append(append(b[:0], nonceSecret+":"...), callID...))
	return hex.AppendEncode(dst, sum[:])
}

// DigestResponse computes the RFC 2617 response value (no qop):
//
//	MD5( MD5(user:realm:password) : nonce : MD5(method:uri) )
func DigestResponse(user, realm, password, nonce, method, uri string) string {
	var b [2 * md5.Size]byte
	return string(appendDigestResponse(b[:0], user, realm, password, nonce, method, uri))
}

// appendDigestResponse appends DigestResponse's hex value to dst, hashing
// from one stack buffer.
func appendDigestResponse(dst []byte, user, realm, password, nonce, method, uri string) []byte {
	var b [256]byte
	in := append(append(append(append(append(b[:0], user...), ':'), realm...), ':'), password...)
	ha1 := md5.Sum(in)
	ha2 := md5.Sum(append(append(append(b[:0], method...), ':'), uri...))
	in = append(append(hex.AppendEncode(b[:0], ha1[:]), ':'), nonce...)
	sum := md5.Sum(hex.AppendEncode(append(in, ':'), ha2[:]))
	return hex.AppendEncode(dst, sum[:])
}

// Credentials is a parsed Authorization / Proxy-Authorization header.
type Credentials struct {
	Username string
	Realm    string
	Nonce    string
	URI      string
	Response string
}

// scanDigest reads the fields of a `Digest key="value", ...` credential or
// challenge where they lie: every field is a substring of v. It reports
// false when v is not a Digest value. The scheme matches case-insensitively
// and may be followed by any linear white space (RFC 3261 §25.1). Params
// split at commas outside quoted strings; keys match case-insensitively,
// values lose their surrounding white space and quotes, and a repeated key
// keeps its last value. Quoted-string escapes are not interpreted.
func scanDigest(v string) (c Credentials, ok bool) {
	v = strings.TrimSpace(v)
	const scheme = "Digest"
	if len(v) <= len(scheme) || !strings.EqualFold(v[:len(scheme)], scheme) ||
		(v[len(scheme)] != ' ' && v[len(scheme)] != '\t') {
		return c, false
	}
	rest := v[len(scheme)+1:]
	for rest != "" {
		end, inQuote := 0, false
		for ; end < len(rest) && (rest[end] != ',' || inQuote); end++ {
			if rest[end] == '"' {
				inQuote = !inQuote
			}
		}
		part := rest[:end]
		rest = rest[min(end+1, len(rest)):]
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			continue
		}
		val := strings.Trim(strings.TrimSpace(part[eq+1:]), `"`)
		switch key := strings.TrimSpace(part[:eq]); {
		case keyIs(key, "username"):
			c.Username = val
		case keyIs(key, "realm"):
			c.Realm = val
		case keyIs(key, "nonce"):
			c.Nonce = val
		case keyIs(key, "uri"):
			c.URI = val
		case keyIs(key, "response"):
			c.Response = val
		}
	}
	return c, true
}

// keyIs reports whether strings.ToLower(key) == name for a lowercase ASCII
// name, allocating only for a key with non-ASCII bytes (U+0130 and U+212A
// lower to ASCII letters).
func keyIs(key, name string) bool {
	for i := 0; i < len(key); i++ {
		if key[i] >= utf8.RuneSelf {
			return strings.ToLower(key) == name
		}
	}
	return len(key) == len(name) && strings.EqualFold(key, name)
}

// ParseCredentials parses `Digest key="value", ...`.
func ParseCredentials(v string) (Credentials, error) {
	c, ok := scanDigest(v)
	if !ok {
		return c, fmt.Errorf("proxy: not a Digest credential: %q", v)
	}
	if c.Username == "" || c.Nonce == "" || c.Response == "" {
		return c, fmt.Errorf("proxy: incomplete Digest credential: %q", v)
	}
	return c, nil
}

// ParseChallenge extracts realm and nonce from a WWW-Authenticate /
// Proxy-Authenticate value. Phones use it to answer challenges.
func ParseChallenge(v string) (realm, nonce string, err error) {
	c, ok := scanDigest(v)
	if !ok {
		return "", "", fmt.Errorf("proxy: not a Digest challenge: %q", v)
	}
	if c.Realm == "" || c.Nonce == "" {
		return "", "", fmt.Errorf("proxy: incomplete challenge: %q", v)
	}
	return c.Realm, c.Nonce, nil
}

// FormatChallenge renders a WWW-Authenticate / Proxy-Authenticate value.
func FormatChallenge(realm, nonce string) string {
	var b [160]byte
	buf := append(append(b[:0], `Digest realm="`...), realm...)
	buf = append(append(buf, `", nonce="`...), nonce...)
	return string(append(buf, `", algorithm=MD5`...))
}

// Format renders an Authorization / Proxy-Authorization value. Fields are
// quoted as they are, without escapes, which is what scanDigest reads.
func (c Credentials) Format() string {
	var b [256]byte
	buf := append(append(b[:0], `Digest username="`...), c.Username...)
	buf = append(append(buf, `", realm="`...), c.Realm...)
	buf = append(append(buf, `", nonce="`...), c.Nonce...)
	buf = append(append(buf, `", uri="`...), c.URI...)
	buf = append(append(buf, `", response="`...), c.Response...)
	return string(append(buf, `", algorithm=MD5`...))
}

// authorized verifies the request's credentials against the user database.
// Verification is the expensive part: it performs the database lookup the
// related work blames for authentication's cost.
func (e *Engine) authorized(m *sipmsg.Message) bool {
	header := "Authorization"
	if m.Method != sipmsg.REGISTER {
		header = "Proxy-Authorization"
	}
	v, ok := m.Get(header)
	if !ok {
		return false
	}
	creds, err := ParseCredentials(v)
	if err != nil || creds.Realm != e.cfg.Domain {
		return false
	}
	var nonce [2 * md5.Size]byte
	if creds.Nonce != string(appendDigestNonce(nonce[:0], m.CallID())) {
		return false
	}
	user, err := e.db.LookupTraced(trace.Of(m), creds.Username, e.cfg.Domain)
	if err != nil {
		return false
	}
	var b [2 * md5.Size]byte
	want := appendDigestResponse(b[:0], creds.Username, creds.Realm, user.Password, creds.Nonce, string(m.Method), creds.URI)
	return subtle.ConstantTimeCompare(want, []byte(creds.Response)) == 1
}

// challenge answers an unauthenticated request with 401 (REGISTER) or 407
// (everything else) carrying a fresh nonce.
func (e *Engine) challenge(s Sender, m *sipmsg.Message, origin any) {
	code, header := sipmsg.StatusUnauthorized, "WWW-Authenticate"
	if m.Method != sipmsg.REGISTER {
		code, header = 407, "Proxy-Authenticate"
	}
	resp := sipmsg.NewResponse(m, code, sipmsg.NewTag())
	if code == 407 {
		resp.Reason = "Proxy Authentication Required"
	}
	var nonce [2 * md5.Size]byte
	resp.Add(header, FormatChallenge(e.cfg.Domain, string(appendDigestNonce(nonce[:0], m.CallID()))))
	e.authChallenges.Inc()
	e.sendToOrigin(s, origin, resp)
	// A challenge terminates this request's timeline. 401/407 is the normal
	// first round of digest auth, so Finish does not count it as a failure.
	trace.Of(m).Finish(code)
}

// requireAuth gates a request when authentication is enabled: it reports
// true when processing may continue.
func (e *Engine) requireAuth(s Sender, m *sipmsg.Message, origin any) bool {
	if !e.cfg.Auth {
		return true
	}
	// ACK and CANCEL are never challenged (RFC 3261 §22.1).
	if m.Method == sipmsg.ACK || m.Method == sipmsg.CANCEL {
		return true
	}
	if e.authorized(m) {
		return true
	}
	e.challenge(s, m, origin)
	return false
}
