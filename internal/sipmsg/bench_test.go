package sipmsg

import "testing"

func BenchmarkParseInvite(b *testing.B) {
	data := []byte(sampleInvite)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseInvitePooled is the receive-loop steady state: the worker
// releases each message after handling, so the parser recycles the Message,
// its Headers array, and the body buffer, paying only for the head copy.
func BenchmarkParseInvitePooled(b *testing.B) {
	data := []byte(sampleInvite)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

func BenchmarkSerializeInvite(b *testing.B) {
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Serialize()
	}
}

// BenchmarkSerializeInviteUncached measures a full wire build: Invalidate
// models a mutation between sends, so each iteration re-renders the message
// into a fresh buffer.
func BenchmarkSerializeInviteUncached(b *testing.B) {
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Invalidate()
		_ = m.Serialize()
	}
}

func BenchmarkStreamFraming(b *testing.B) {
	m := buildTestRequest(7)
	wire := m.Serialize()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	r := NewReader(repeatReader{wire})
	for i := 0; i < b.N; i++ {
		m, err := r.ReadMessage()
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

func BenchmarkParseURI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseURI("sip:alice@atlanta.example.com:5070;transport=tcp"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseVia(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseVia("SIP/2.0/UDP pc33.atlanta.example.com:5066;branch=z9hG4bK776asdhds"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewBranch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NewBranch()
	}
}

func BenchmarkTransactionKey(b *testing.B) {
	m, _ := Parse([]byte(sampleInvite))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.TransactionKey(); err != nil {
			b.Fatal(err)
		}
	}
}
