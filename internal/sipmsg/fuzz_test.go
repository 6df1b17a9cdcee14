package sipmsg

import (
	"bytes"
	"io"
	"testing"
)

// FuzzParse checks that the parser never panics on arbitrary input and
// that every accepted message survives a serialize→reparse round trip:
// identity, body, and every header must come back intact, and a second
// serialization must be byte-identical to the first (serialization is a
// fixed point of parse∘serialize). Run longer with:
//
//	go test -fuzz=FuzzParse ./internal/sipmsg
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleInvite))
	f.Add([]byte("SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP a;branch=z9hG4bK1\r\nCSeq: 1 INVITE\r\n\r\n"))
	f.Add([]byte("REGISTER sip:d SIP/2.0\r\nContact: <sip:a@b:5060>\r\nExpires: 60\r\n\r\n"))
	f.Add([]byte("INVITE sip:a@[::1]:5 SIP/2.0\r\nVia: SIP/2.0/TCP [::1];branch=z9hG4bK2\r\n\r\nbody"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte{0x00, 0x0d, 0x0a, 0x0d, 0x0a})
	for _, tc := range tortureAccepted {
		f.Add([]byte(tc.raw))
	}
	for _, tc := range tortureRejected {
		f.Add([]byte(tc.raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out := m.Serialize()
		m2, err := Parse(out)
		if err != nil {
			t.Fatalf("accepted message does not reparse: %v\ninput:  %q\noutput: %q", err, data, out)
		}
		if m2.IsRequest != m.IsRequest || m2.Method != m.Method || m2.StatusCode != m.StatusCode {
			t.Fatalf("round trip changed identity: %+v vs %+v", m, m2)
		}
		if m.IsRequest && m2.RequestURI.String() != m.RequestURI.String() {
			t.Fatalf("round trip changed request URI: %q vs %q", m.RequestURI.String(), m2.RequestURI.String())
		}
		if !bytes.Equal(m2.Body, m.Body) {
			t.Fatalf("round trip changed body: %q vs %q", m.Body, m2.Body)
		}
		if len(m2.Headers) != len(m.Headers) {
			t.Fatalf("round trip changed header count: %d vs %d", len(m.Headers), len(m2.Headers))
		}
		for i := range m.Headers {
			if m2.Headers[i] != m.Headers[i] {
				t.Fatalf("round trip changed header %d: %+v vs %+v", i, m.Headers[i], m2.Headers[i])
			}
		}
		if out2 := m2.Serialize(); !bytes.Equal(out2, out) {
			t.Fatalf("serialization is not a fixed point:\nfirst:  %q\nsecond: %q", out, out2)
		}
		m2.Release()
		m.Release()
	})
}

// FuzzStreamParser checks the Reader's framer against arbitrary chunk
// splits of arbitrary bytes: no panics; the split stream frames exactly the
// messages, and ends with the same error, as the stream read whole; every
// framed message reparses with Parse to the same wire form; and the
// buffer goes back however the stream ends.
func FuzzStreamParser(f *testing.F) {
	f.Add([]byte(sampleInvite), uint8(3))
	f.Add([]byte("\r\n\r\nINVITE sip:a@b SIP/2.0\r\nContent-Length: 0\r\n\r\n"), uint8(1))
	for _, tc := range tortureAccepted {
		f.Add([]byte(tc.raw), uint8(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		whole, wholeErr := frameAll(t, &chunkReader{data: data, next: func(rest int) int { return rest }})
		step := int(chunk)%7 + 1
		split, splitErr := frameAll(t, &chunkReader{data: data, next: func(int) int { return step }})
		if len(split) != len(whole) {
			t.Fatalf("split into %d-byte reads: %d messages, read whole: %d", step, len(split), len(whole))
		}
		for i := range split {
			if split[i] != whole[i] {
				t.Fatalf("message %d differs when split:\n%q\nwhole:\n%q", i, split[i], whole[i])
			}
		}
		if (splitErr == io.EOF) != (wholeErr == io.EOF) {
			t.Fatalf("split stream ends with %v, whole with %v", splitErr, wholeErr)
		}
		if n := ReadBuffersOnLoan(); n != 0 {
			t.Fatalf("%d read buffers on loan after the stream ended", n)
		}
	})
}

// frameAll reads src to its end and returns each framed message's wire
// form, having checked that Parse reads it back to the same form.
func frameAll(t *testing.T, src io.Reader) ([]string, error) {
	r := NewReader(src)
	var out []string
	for {
		m, err := r.ReadMessage()
		if err != nil {
			return out, err
		}
		wire := m.Serialize()
		m2, err := Parse(wire)
		if err != nil {
			t.Fatalf("framed message does not reparse: %v", err)
		}
		if again := m2.Serialize(); !bytes.Equal(again, wire) {
			t.Fatalf("Parse disagrees with the framer:\n%q\n%q", wire, again)
		}
		out = append(out, string(wire))
		m2.Release()
		m.Release()
	}
}

// viaBranchSeeds are Via values on which the scanner and the map-building
// parser must agree: repeated and flag parameters, odd case and spacing,
// and the malformed shapes ParseVia rejects.
var viaBranchSeeds = []string{
	"SIP/2.0/UDP 10.0.0.1:5071;branch=z9hG4bKabc",
	"SIP/2.0/UDP 10.0.0.1:5071;rport;branch=z9hG4bKabc;received=1.2.3.4",
	"SIP/2.0/TCP [::1]:5;BRANCH=z9hG4bKupper",
	"SIP/2.0/udp  host ; branch=z9hG4bKspaced ; x",
	"SIP/2.0/UDP h;branch=first;branch=last",
	"SIP/2.0/UDP h;branch=v;branch",
	"SIP/2.0/UDP h;branch",
	"SIP/2.0/UDP h;branch=",
	"SIP/2.0/UDP h;branch=a=b",
	"SIP/2.0/UDP h;xbranch=no;branchx=no",
	"SIP/2.0/UDP h;;;",
	"SIP/2.0/UDP h",
	"SIP/2.0/UDP h:99999;branch=z",
	"SIP/2.0/UDP [::1;branch=z",
	"SIP/2.0/UDP",
	"SIP/3.0/UDP h;branch=z",
	"",
}

func checkViaBranch(t *testing.T, s string) {
	t.Helper()
	got, gotErr := viaBranch(s)
	v, wantErr := ParseVia(s)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("viaBranch(%q) error = %v, ParseVia error = %v", s, gotErr, wantErr)
	}
	if gotErr == nil && got != v.Branch() {
		t.Fatalf("viaBranch(%q) = %q, ParseVia(...).Branch() = %q", s, got, v.Branch())
	}
}

func TestViaBranchAgreesWithParseVia(t *testing.T) {
	for _, s := range viaBranchSeeds {
		checkViaBranch(t, s)
	}
}

// FuzzViaBranch holds the map-free branch scanner to the parser it
// replaces on the transaction-matching path.
func FuzzViaBranch(f *testing.F) {
	for _, s := range viaBranchSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkViaBranch(t, s) })
}
