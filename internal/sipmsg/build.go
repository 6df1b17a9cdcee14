package sipmsg

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
)

// MagicCookie is the RFC 3261 branch prefix that marks a branch as
// compliant with the modern transaction-matching rules.
const MagicCookie = "z9hG4bK"

// Tokens are "<prefix>-<counter>" in base 36: the counter makes them unique
// within the process, the prefix — 40 random bits drawn once — keeps two
// proxies of one deployment from minting the same sequence.
var (
	idCounter atomic.Uint64
	idPrefix  = strconv.FormatUint(rand.Uint64()>>24, 36) + "-"
)

// maxTokenLen bounds a token: 8 prefix digits, '-', 13 counter digits.
const maxTokenLen = 22

// appendUniqueToken appends a fresh token to buf: one atomic add, no lock.
func appendUniqueToken(buf []byte) []byte {
	buf = append(buf, idPrefix...)
	return strconv.AppendUint(buf, idCounter.Add(1), 36)
}

func uniqueToken() string {
	var b [maxTokenLen]byte
	return string(appendUniqueToken(b[:0]))
}

// AppendBranch appends a unique RFC 3261 branch parameter value, cookie
// included, to buf. Callers rendering a whole Via into one buffer use it to
// mint the branch in place.
func AppendBranch(buf []byte) []byte {
	return appendUniqueToken(append(buf, MagicCookie...))
}

// NewBranch generates a unique RFC 3261 branch parameter.
func NewBranch() string {
	var b [len(MagicCookie) + maxTokenLen]byte
	return string(AppendBranch(b[:0]))
}

// NewTag generates a From/To tag.
func NewTag() string { return uniqueToken() }

// NewCallID generates a Call-ID scoped to the given host.
func NewCallID(host string) string { return uniqueToken() + "@" + host }

// RequestSpec carries everything needed to build a well-formed request.
type RequestSpec struct {
	Method     Method
	RequestURI URI
	From       NameAddr // must carry a tag
	To         NameAddr
	CallID     string
	CSeq       uint32
	Via        Via // the sender's own Via; a branch is generated if absent
	Contact    *NameAddr
	Expires    int // REGISTER only; emitted when > 0
	Body       []byte
	MaxFwd     int // 0 means default 70
}

// NewRequest builds a request message from the spec.
func NewRequest(spec RequestSpec) *Message {
	m := &Message{IsRequest: true, Method: spec.Method, RequestURI: spec.RequestURI}
	via := spec.Via
	if via.Branch() == "" {
		if via.Params == nil {
			via.Params = map[string]string{}
		} else {
			cp := make(map[string]string, len(via.Params)+1)
			for k, v := range via.Params {
				cp[k] = v
			}
			via.Params = cp
		}
		via.Params["branch"] = NewBranch()
	}
	maxFwd := spec.MaxFwd
	if maxFwd == 0 {
		maxFwd = 70
	}
	m.Add("Via", via.String())
	m.Add("Max-Forwards", strconv.Itoa(maxFwd))
	m.Add("From", spec.From.String())
	m.Add("To", spec.To.String())
	m.Add("Call-ID", spec.CallID)
	m.Add("CSeq", fmt.Sprintf("%d %s", spec.CSeq, spec.Method))
	if spec.Contact != nil {
		m.Add("Contact", spec.Contact.String())
	}
	if spec.Expires > 0 {
		m.Add("Expires", strconv.Itoa(spec.Expires))
	}
	if len(spec.Body) > 0 {
		m.Set("Content-Type", "application/sdp")
		m.Body = spec.Body
	}
	return m
}

// NewResponse builds a response to req per RFC 3261 §8.2.6: Via stack,
// From, Call-ID, and CSeq are copied; To is copied and, for non-100
// responses, given toTag when the request's To had none.
func NewResponse(req *Message, code int, toTag string) *Message {
	resp := &Message{StatusCode: code, Reason: StatusText(code)}
	// Sized for the copied Via stack plus From, To, Call-ID, CSeq and one
	// header of the caller's (Contact, Retry-After, a challenge).
	vias := 0
	for i := range req.Headers {
		if req.Headers[i].Name == "Via" {
			vias++
		}
	}
	resp.Headers = make([]Header, 0, vias+5)
	for i := range req.Headers {
		if req.Headers[i].Name == "Via" {
			resp.Headers = append(resp.Headers, req.Headers[i])
		}
	}
	if from, ok := req.Get("From"); ok {
		resp.Add("From", from)
	}
	to, _ := req.Get("To")
	if code != StatusTrying && toTag != "" {
		if na, err := ParseNameAddr(to); err == nil && na.Params["tag"] == "" {
			to = na.WithTag(toTag).String()
		}
	}
	resp.Add("To", to)
	resp.Add("Call-ID", req.CallID())
	if cseq, ok := req.Get("CSeq"); ok {
		resp.Add("CSeq", cseq)
	}
	return resp
}

// NewAck builds the ACK for a final response to an INVITE, reusing the
// INVITE's Call-ID and From, and the response's To (which carries the
// callee's tag). For 2xx responses the ACK is a separate transaction and
// gets a fresh branch (RFC 3261 §13.2.2.4).
func NewAck(invite *Message, resp *Message, via Via) *Message {
	m := &Message{IsRequest: true, Method: ACK, RequestURI: invite.RequestURI}
	v := via
	if v.Params == nil {
		v.Params = map[string]string{}
	} else {
		cp := make(map[string]string, len(v.Params)+1)
		for k, val := range v.Params {
			cp[k] = val
		}
		v.Params = cp
	}
	if resp.StatusCode >= 300 {
		// Non-2xx ACK belongs to the INVITE transaction: same branch.
		if iv, err := invite.TopVia(); err == nil {
			v.Params["branch"] = iv.Branch()
		}
	} else {
		v.Params["branch"] = NewBranch()
	}
	m.Add("Via", v.String())
	m.Add("Max-Forwards", "70")
	if from, ok := invite.Get("From"); ok {
		m.Add("From", from)
	}
	if to, ok := resp.Get("To"); ok {
		m.Add("To", to)
	}
	m.Add("Call-ID", invite.CallID())
	seq, _, _ := invite.CSeq()
	m.Add("CSeq", fmt.Sprintf("%d %s", seq, ACK))
	return m
}
