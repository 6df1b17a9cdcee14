package sipmsg

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
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

// chunkReader is a stream source that hands out data in the chunk lengths
// next picks from the bytes left (at least one each), then io.EOF. It
// drives the Reader through every way a stream can split its messages.
type chunkReader struct {
	data []byte
	next func(rest int) int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data[:max(1, min(c.next(len(c.data)), len(c.data)))])
	c.data = c.data[n:]
	return n, nil
}

// readAll frames every message out of r and returns their Call-IDs, ending
// at the first error, which it returns too (io.EOF on a clean end).
func readAll(r *Reader) ([]string, error) {
	var ids []string
	for {
		m, err := r.ReadMessage()
		if err != nil {
			return ids, err
		}
		ids = append(ids, m.CallID())
		m.Release()
	}
}

// checkNoLoans fails the test when a Reader still holds a read buffer.
func checkNoLoans(t *testing.T) {
	t.Helper()
	if n := ReadBuffersOnLoan(); n != 0 {
		t.Errorf("%d read buffers on loan, want 0", n)
	}
}

// The TestStreamParser* tests hold the stream framer, which runs inside the
// Reader, to the properties it has always had.

func TestStreamParserSingleMessage(t *testing.T) {
	m := buildTestRequest(5)
	r := NewReader(bytes.NewReader(m.Serialize()))
	got, err := r.ReadMessage()
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if got.CallID() != m.CallID() || !bytes.Equal(got.Body, m.Body) {
		t.Errorf("mismatch: %s vs %s", got.ShortString(), m.ShortString())
	}
	got.Release()
	checkNoLoans(t)
	if _, err := r.ReadMessage(); err != io.EOF {
		t.Errorf("drained reader returned %v, want io.EOF", err)
	}
	checkNoLoans(t)
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
		src := &chunkReader{data: wire, next: func(rest int) int { return 1 + r.Intn(rest) }}
		got, err := readAll(NewReader(src))
		if err != io.EOF {
			t.Logf("framing error: %v", err)
			return false
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
		return ReadBuffersOnLoan() == 0
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStreamParserByteAtATime(t *testing.T) {
	m := buildTestRequest(17)
	wire := append(m.Serialize(), "\r\n"...)
	wire = append(wire, buildTestRequest(18).Serialize()...)
	got, err := readAll(NewReader(&chunkReader{data: wire, next: func(int) int { return 1 }}))
	if err != io.EOF {
		t.Fatalf("framing error: %v", err)
	}
	if len(got) != 2 || got[0] != m.CallID() {
		t.Errorf("got %q, want two messages, the first %q", got, m.CallID())
	}
	checkNoLoans(t)
}

func TestStreamParserMalformedIsFatal(t *testing.T) {
	r := NewReader(strings.NewReader("GARBAGE NOT SIP\r\n\r\n" + string(buildTestRequest(1).Serialize())))
	_, err := r.ReadMessage()
	if err == nil || err == io.EOF {
		t.Fatalf("malformed stream returned %v", err)
	}
	// The boundaries are lost: the error stands, and the valid message
	// behind the garbage is never framed.
	if _, again := r.ReadMessage(); again != err {
		t.Errorf("second read returned %v, want the framing error %v", again, err)
	}
	checkNoLoans(t)
}

// TestReaderOversizedIsBounded holds a partial message to the framer's
// limits: a head that never ends fails with ErrTooLarge once it passes
// MaxHeaderBytes, a body too long to accept as soon as its head arrives,
// and both give the buffer back.
func TestReaderOversizedIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name, wire string
		maxRead    int // bytes the reader may take before refusing
	}{
		{"head", "INVITE sip:a@b SIP/2.0\r\nX-Pad: " + strings.Repeat("x", 2*MaxHeaderBytes), MaxHeaderBytes + 1000},
		{"body", "INVITE sip:a@b SIP/2.0\r\nContent-Length: 1000000000\r\n\r\n" + strings.Repeat("x", 8<<10), 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &chunkReader{data: []byte(tc.wire), next: func(int) int { return 1000 }}
			if _, err := NewReader(src).ReadMessage(); err != ErrTooLarge {
				t.Fatalf("ReadMessage = %v, want ErrTooLarge", err)
			}
			if read := len(tc.wire) - len(src.data); read > tc.maxRead {
				t.Errorf("read %d bytes before refusing, want <= %d", read, tc.maxRead)
			}
			checkNoLoans(t)
		})
	}
}

// TestReaderLargeMessageGrowsBuffer frames a message larger than a pooled
// buffer, split across many reads.
func TestReaderLargeMessageGrowsBuffer(t *testing.T) {
	m := NewRequest(RequestSpec{
		Method:     INVITE,
		RequestURI: URI{User: "bob", Host: "example.com"},
		From:       NameAddr{URI: URI{User: "alice", Host: "a.com"}, Params: map[string]string{"tag": "t1"}},
		To:         NameAddr{URI: URI{User: "bob", Host: "example.com"}},
		CallID:     "large@a.com",
		CSeq:       1,
		Via:        Via{Transport: "TCP", Host: "a.com", Port: 5071},
		Body:       bytes.Repeat([]byte{'b'}, MaxBodyBytes),
	})
	wire := append(m.Serialize(), buildTestRequest(3).Serialize()...)
	r := NewReader(&chunkReader{data: wire, next: func(int) int { return 1500 }})
	got, err := r.ReadMessage()
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if !bytes.Equal(got.Body, m.Body) {
		t.Errorf("body of %d bytes, want %d", len(got.Body), len(m.Body))
	}
	got.Release()
	if ids, err := readAll(r); err != io.EOF || len(ids) != 1 {
		t.Errorf("after the large message: %q, %v", ids, err)
	}
	checkNoLoans(t)
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
	checkNoLoans(t)
}

// TestReaderRawConnLoopback drives the descriptor path over a loopback TCP
// socket: messages split across writes, keep-alives, a parked reader that
// holds no buffer and wakes on a read deadline, a timeout that keeps a
// partial message, and EOF in the middle of one.
func TestReaderRawConnLoopback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := NewReader(srv)
	if r.rc == nil {
		t.Fatal("a TCP connection did not take the descriptor path")
	}
	send := func(b []byte) {
		t.Helper()
		if _, err := cli.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want *Message) {
		t.Helper()
		got, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("ReadMessage: %v", err)
		}
		if got.CallID() != want.CallID() || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("got %s, want %s", got.ShortString(), want.ShortString())
		}
		got.Release()
	}

	// One message in three writes, each read on its own, then keep-alives
	// and a second message in one write.
	m1, m2, m3 := buildTestRequest(40), buildTestRequest(41), buildTestRequest(42)
	w1 := m1.Serialize()
	go func() {
		for _, part := range [][]byte{w1[:10], w1[10:200], w1[200:]} {
			cli.Write(part)
			time.Sleep(5 * time.Millisecond)
		}
		cli.Write(append([]byte("\r\n\r\n\r\n"), m2.Serialize()...))
	}()
	expect(m1)
	expect(m2)
	checkNoLoans(t)

	// A parked reader holds nothing, and a deadline set from another
	// goroutine wakes it.
	woke := make(chan error, 1)
	go func() {
		_, err := r.ReadMessage()
		woke <- err
	}()
	time.Sleep(20 * time.Millisecond)
	checkNoLoans(t)
	srv.SetReadDeadline(time.Now())
	select {
	case err := <-woke:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("woken reader returned %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read deadline did not wake the parked reader")
	}
	checkNoLoans(t)

	// A timeout with half a message pending keeps it: the rest completes it.
	w3 := m3.Serialize()
	send(w3[:100])
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := r.ReadMessage(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("ReadMessage = %v, want a timeout", err)
	}
	if n := ReadBuffersOnLoan(); n != 1 {
		t.Errorf("%d buffers on loan with a partial message pending, want 1", n)
	}
	srv.SetReadDeadline(time.Time{})
	send(w3[100:])
	expect(m3)
	checkNoLoans(t)

	// EOF mid-message is an error, not a clean end.
	send(w3[:50])
	cli.Close()
	_, err = r.ReadMessage()
	if err == nil || !strings.Contains(err.Error(), "sipmsg: connection closed mid-message (50 bytes buffered)") {
		t.Fatalf("EOF mid-message returned %v", err)
	}
	checkNoLoans(t)
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
