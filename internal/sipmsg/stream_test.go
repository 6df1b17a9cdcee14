package sipmsg

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func buildTestRequest(i int) *Message {
	return NewRequest(RequestSpec{
		Method:     INVITE,
		RequestURI: URI{User: "bob", Host: "example.com"},
		From:       NameAddr{URI: URI{User: "alice", Host: "a.com"}, Params: map[string]string{"tag": "t1"}},
		To:         NameAddr{URI: URI{User: "bob", Host: "example.com"}},
		CallID:     NewCallID("a.com"),
		CSeq:       uint32(i + 1),
		Via:        Via{Transport: "TCP", Host: "a.com", Port: 5071},
		Body:       bytes.Repeat([]byte{'x'}, i%97),
	})
}

func TestStreamParserSingleMessage(t *testing.T) {
	m := buildTestRequest(5)
	var p StreamParser
	p.Feed(m.Serialize())
	got, err := p.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got.CallID() != m.CallID() || !bytes.Equal(got.Body, m.Body) {
		t.Errorf("mismatch: %s vs %s", got.ShortString(), m.ShortString())
	}
	if _, err := p.Next(); err != ErrIncomplete {
		t.Errorf("empty parser returned %v, want ErrIncomplete", err)
	}
	if p.Buffered() != 0 {
		t.Errorf("Buffered = %d", p.Buffered())
	}
}

func TestStreamParserArbitraryChunking(t *testing.T) {
	// Property: for any sequence of messages and any chunking of the
	// concatenated bytes, the framer yields the identical message sequence.
	rng := rand.New(rand.NewSource(42))
	check := func(nMsgs uint8, seed int64) bool {
		n := int(nMsgs%8) + 1
		r := rand.New(rand.NewSource(seed))
		var wire []byte
		var want []string
		for i := 0; i < n; i++ {
			m := buildTestRequest(r.Intn(100))
			want = append(want, m.CallID())
			wire = append(wire, m.Serialize()...)
			// Interleave keep-alive CRLFs occasionally.
			if r.Intn(3) == 0 {
				wire = append(wire, "\r\n\r\n"...)
			}
		}
		var p StreamParser
		var got []string
		for len(wire) > 0 {
			k := 1 + r.Intn(len(wire))
			p.Feed(wire[:k])
			wire = wire[k:]
			for {
				m, err := p.Next()
				if err != nil {
					if isIncomplete(err) {
						break
					}
					t.Logf("framing error: %v", err)
					return false
				}
				got = append(got, m.CallID())
			}
		}
		if len(got) != len(want) {
			t.Logf("got %d messages, want %d", len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStreamParserByteAtATime(t *testing.T) {
	m := buildTestRequest(17)
	wire := m.Serialize()
	var p StreamParser
	var got *Message
	for _, b := range wire {
		p.Feed([]byte{b})
		msg, err := p.Next()
		if err == nil {
			got = msg
		} else if !isIncomplete(err) {
			t.Fatalf("framing error: %v", err)
		}
	}
	if got == nil {
		t.Fatal("no message after full feed")
	}
	if got.CallID() != m.CallID() {
		t.Errorf("CallID mismatch")
	}
}

func TestStreamParserMalformedIsFatal(t *testing.T) {
	var p StreamParser
	p.Feed([]byte("GARBAGE NOT SIP\r\n\r\n"))
	if _, err := p.Next(); err == nil || isIncomplete(err) {
		t.Errorf("malformed stream returned %v", err)
	}
}

func TestReaderOverPipe(t *testing.T) {
	pr, pw := io.Pipe()
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			m := buildTestRequest(i)
			wire := m.Serialize()
			// Write in two chunks to exercise partial reads.
			half := len(wire) / 2
			pw.Write(wire[:half])
			pw.Write(wire[half:])
		}
		pw.Close()
	}()
	r := NewReader(pr)
	count := 0
	for {
		m, err := r.ReadMessage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadMessage: %v", err)
		}
		if m.Method != INVITE {
			t.Errorf("method = %q", m.Method)
		}
		count++
	}
	if count != n {
		t.Errorf("read %d messages, want %d", count, n)
	}
}

func TestReaderEOFMidMessage(t *testing.T) {
	pr, pw := io.Pipe()
	go func() {
		pw.Write([]byte("INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/TCP x"))
		pw.Close()
	}()
	r := NewReader(pr)
	if _, err := r.ReadMessage(); err == nil {
		t.Error("mid-message EOF not reported")
	}
}

func TestSerializeParsePropertyQuick(t *testing.T) {
	// Property: serialize → parse preserves the salient fields for
	// arbitrary user/host tokens and bodies.
	f := func(userRaw, hostRaw string, body []byte, seq uint32) bool {
		user := sanitizeToken(userRaw, "u")
		host := sanitizeToken(hostRaw, "h") + ".test"
		if len(body) > 1024 {
			body = body[:1024]
		}
		m := NewRequest(RequestSpec{
			Method:     BYE,
			RequestURI: URI{User: user, Host: host},
			From:       NameAddr{URI: URI{User: "a", Host: "x.com"}, Params: map[string]string{"tag": "t"}},
			To:         NameAddr{URI: URI{User: "b", Host: "y.com"}},
			CallID:     "cid@x.com",
			CSeq:       seq%1000000 + 1,
			Via:        Via{Transport: "UDP", Host: "x.com", Port: 5062},
			Body:       body,
		})
		m2, err := Parse(m.Serialize())
		if err != nil {
			return false
		}
		if m2.Method != BYE || m2.RequestURI.User != user || m2.RequestURI.Host != host {
			return false
		}
		s2, _, _ := m2.CSeq()
		s1, _, _ := m.CSeq()
		return s1 == s2 && bytes.Equal(m2.Body, m.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sanitizeToken maps arbitrary fuzz input onto a legal SIP token so the
// property tests target framing/round-trip logic rather than URI grammar.
func sanitizeToken(s, def string) string {
	var out []byte
	for i := 0; i < len(s) && len(out) < 24; i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return def
	}
	return string(out)
}

func TestBuilders(t *testing.T) {
	invite := buildTestRequest(1)
	resp := NewResponse(invite, StatusRinging, "totag1")
	if resp.StatusCode != StatusRinging {
		t.Errorf("code = %d", resp.StatusCode)
	}
	if resp.ToTag() != "totag1" {
		t.Errorf("ToTag = %q", resp.ToTag())
	}
	if resp.CallID() != invite.CallID() {
		t.Error("Call-ID not copied")
	}
	if len(resp.GetAll("Via")) != len(invite.GetAll("Via")) {
		t.Error("Via stack not copied")
	}
	// 100 Trying never gets a To tag.
	trying := NewResponse(invite, StatusTrying, "ignored")
	if trying.ToTag() != "" {
		t.Errorf("Trying got tag %q", trying.ToTag())
	}

	ok := NewResponse(invite, StatusOK, "totag1")
	ack := NewAck(invite, ok, Via{Transport: "TCP", Host: "a.com", Port: 5071})
	if ack.Method != ACK {
		t.Errorf("method = %q", ack.Method)
	}
	seq, method, _ := ack.CSeq()
	iseq, _, _ := invite.CSeq()
	if seq != iseq || method != ACK {
		t.Errorf("ACK CSeq = %d %s", seq, method)
	}
	av, _ := ack.TopVia()
	iv, _ := invite.TopVia()
	if av.Branch() == iv.Branch() {
		t.Error("2xx ACK must have a fresh branch")
	}

	busy := NewResponse(invite, StatusBusyHere, "totag2")
	nack := NewAck(invite, busy, Via{Transport: "TCP", Host: "a.com", Port: 5071})
	nv, _ := nack.TopVia()
	if nv.Branch() != iv.Branch() {
		t.Error("non-2xx ACK must reuse the INVITE branch")
	}
}

// TestNewBranchUnique mints tokens from 8 goroutines at once (run it under
// -race): every branch carries the RFC 3261 cookie and none repeats, and no
// tag collides with another either.
func TestNewBranchUnique(t *testing.T) {
	const goroutines, each = 8, 100000
	out := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			toks := make([]string, 0, each)
			for i := 0; i < each/2; i++ {
				toks = append(toks, NewBranch(), MagicCookie+NewTag())
			}
			out[g] = toks
		}(g)
	}
	wg.Wait()
	seen := make(map[string]struct{}, goroutines*each)
	for _, toks := range out {
		for _, b := range toks {
			if !strings.HasPrefix(b, MagicCookie) || len(b) > len(MagicCookie)+maxTokenLen {
				t.Fatalf("malformed branch %q", b)
			}
			if _, dup := seen[b]; dup {
				t.Fatalf("duplicate token %q", b)
			}
			seen[b] = struct{}{}
		}
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(486) != "Busy Here" {
		t.Error("StatusText broken")
	}
	if StatusText(299) != "Unknown" {
		t.Error("unknown code should say Unknown")
	}
}
