//go:build linux

package main

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// scriptedPeer stands where the proxy would: it reads the generator's
// requests off a UDP socket or one TCP connection and answers each through
// script, which returns the wire bytes to send back (nothing = silence).
type scriptedPeer struct {
	addr string
	stop func()
}

func startPeer(t *testing.T, network string, script func(v *msgView, raw []byte) [][]byte) *scriptedPeer {
	t.Helper()
	done := make(chan struct{})
	if network == "udp" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer close(done)
			buf := make([]byte, 64<<10)
			for {
				n, src, err := pc.ReadFrom(buf)
				if err != nil {
					return
				}
				var v msgView
				if v.scan(buf[:n]) != nil {
					t.Errorf("peer: generator sent bytes that do not scan: %q", buf[:n])
					continue
				}
				for _, out := range script(&v, buf[:n]) {
					if _, err := pc.WriteTo(out, src); err != nil {
						return
					}
				}
			}
		}()
		return &scriptedPeer{pc.LocalAddr().String(), func() { pc.Close(); <-done }}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 1) // the one connection the test's caller dials
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- conn
		f := newStreamFramer(conn)
		for {
			raw, err := f.next()
			if err != nil {
				return
			}
			var v msgView
			if v.scan(raw) != nil {
				t.Errorf("peer: generator sent bytes that do not scan: %q", raw)
				continue
			}
			for _, out := range script(&v, raw) {
				if _, err := conn.Write(out); err != nil {
					return
				}
			}
		}
	}()
	return &scriptedPeer{ln.Addr().String(), func() {
		ln.Close()
		select {
		case c := <-conns:
			c.Close()
		default:
		}
		<-done
	}}
}

// testCaller is a caller wired to addr the way newGenerator wires one.
func testCaller(t *testing.T, network, addr string) *caller {
	t.Helper()
	g := &generator{wl: &workload{network: network}, proxy: addr, epoch: time.Now(), timeout: 150 * time.Millisecond}
	e, err := dialEndpoint(network, addr, g.timeout)
	if err != nil {
		t.Fatal(err)
	}
	c := &caller{pair: &pair{}, callee: "user7"}
	c.g, c.id = g, identity{tag: "0badcafec0", user: "user3", domain: benchDomain}
	c.use(e)
	t.Cleanup(func() { c.ep.close() }) // whichever connection the caller ended on
	return c
}

// answerAs builds the responses a healthy proxy would relay, then lets
// spoil damage the view they are built from.
func answerAs(statuses []string, spoil func(v *msgView)) func(v *msgView, raw []byte) [][]byte {
	uas := &callee{user: "user7"}
	uas.ep.Store(&endpoint{local: "127.0.0.1:9"})
	return func(v *msgView, _ []byte) [][]byte {
		if string(v.method) == "ACK" {
			return nil
		}
		if spoil != nil {
			spoil(v)
		}
		var out [][]byte
		for _, st := range statuses {
			if string(v.method) == "BYE" && st != "200 OK" {
				continue
			}
			out = append(out, uas.response(nil, v, st, string(v.method) == "INVITE"))
		}
		return out
	}
}

func TestCallerAgainstScriptedPeers(t *testing.T) {
	healthy := []string{"100 Trying", "180 Ringing", "200 OK"}
	for _, network := range []string{"udp", "tcp"} {
		for _, c := range []struct {
			name   string
			script func(v *msgView, raw []byte) [][]byte
			want   []reason // one per op the call logs
		}{
			{"healthy", answerAs(healthy, nil), []reason{opOK, opOK}},
			{"wrong Call-ID", answerAs(healthy, func(v *msgView) { v.callID = []byte("0badcafec0n9999999999@bench") }),
				[]reason{failCallID, failCallID}},
			{"foreign Call-ID", answerAs(healthy, func(v *msgView) { v.callID = []byte("somebody-else@elsewhere") }),
				[]reason{failCallID, failCallID}},
			{"missing Via", answerAs(healthy, func(v *msgView) { v.nvia = 0 }), []reason{failVia, failVia}},
			{"extra Via", answerAs(healthy, func(v *msgView) { v.vias[1], v.nvia = v.vias[0], 2 }), []reason{failVia, failVia}},
			{"wrong CSeq", answerAs(healthy, func(v *msgView) { v.cseq = []byte("1999999999 INVITE") }), []reason{failCSeq, failCSeq}},
			{"503", answerAs([]string{"100 Trying", "503 Service Unavailable"}, nil), []reason{failStatus}},
			{"silence", func(*msgView, []byte) [][]byte { return nil }, []reason{failTimeout}},
			{"garbage", func(*msgView, []byte) [][]byte {
				return [][]byte{[]byte("not sip at all\r\nContent-Length: 0\r\n\r\n")}
			},
				[]reason{failMalformed, failMalformed}},
		} {
			t.Run(network+"/"+c.name, func(t *testing.T) {
				t.Parallel() // most cases end by waiting out the response timeout
				peer := startPeer(t, network, c.script)
				defer peer.stop()
				cl := testCaller(t, network, peer.addr)
				cl.call()
				var got []reason
				for _, ev := range cl.log.ops {
					got = append(got, ev.why)
				}
				if len(got) != len(c.want) {
					t.Fatalf("logged ops %v, want %v", got, c.want)
				}
				for i := range got {
					if got[i] != c.want[i] {
						t.Fatalf("logged ops %v, want %v", got, c.want)
					}
				}
				if wantLat := c.want[0] == opOK; (len(cl.log.lats) == 1) != wantLat {
					t.Errorf("latency samples %d; a sample is due exactly when the call succeeded", len(cl.log.lats))
				}
			})
		}
	}
}

// A late 180 overtaken by its 200 (the proxy's UDP workers do this) is not
// a failure: it belongs to an earlier transaction of the same caller.
func TestLateProvisionalIsNotAFailure(t *testing.T) {
	uas := &callee{user: "user7"}
	uas.ep.Store(&endpoint{local: "127.0.0.1:9"})
	var ringing []byte
	peer := startPeer(t, "udp", func(v *msgView, _ []byte) [][]byte {
		switch string(v.method) {
		case "INVITE":
			ringing = uas.response(nil, v, "180 Ringing", true)
			return [][]byte{uas.response(nil, v, "200 OK", true)}
		case "BYE":
			return [][]byte{ringing, uas.response(nil, v, "200 OK", false)}
		}
		return nil
	})
	defer peer.stop()
	cl := testCaller(t, "udp", peer.addr)
	cl.call()
	for _, ev := range cl.log.ops {
		if ev.why != opOK {
			t.Fatalf("ops %v: a reordered 180 was counted as a failure", cl.log.ops)
		}
	}
}

// The templates must be what a SIP peer expects: the checks here are the
// ones the proxy's own parser and framer depend on.
func TestTemplatesRenderWellFormedRequests(t *testing.T) {
	var seen []string
	peer := startPeer(t, "tcp", func(v *msgView, raw []byte) [][]byte {
		seen = append(seen, string(v.method))
		if frameLen(raw) != len(raw) {
			t.Errorf("%s: Content-Length does not frame the message: %q", v.method, raw)
		}
		if v.nvia != 1 || !bytes.Contains(v.vias[0], []byte(";branch=z9hG4bK")) {
			t.Errorf("%s: want one Via with an RFC 3261 branch, got %q", v.method, v.vias[:v.nvia])
		}
		if string(v.maxFwd) != "70" || string(v.uriUser) != "user7" || !bytes.Contains(v.from, []byte(";tag=")) {
			t.Errorf("%s: Max-Forwards %q, Request-URI user %q, From %q", v.method, v.maxFwd, v.uriUser, v.from)
		}
		if m := string(v.method); m != "INVITE" && !bytes.Contains(v.to, []byte(";tag=callee-user7")) {
			t.Errorf("%s: in-dialog request without the callee's To tag: %q", m, v.to)
		}
		return answerAs([]string{"200 OK"}, nil)(v, raw)
	})
	cl := testCaller(t, "tcp", peer.addr)
	cl.call()
	peer.stop() // the peer goroutine has exited: seen is safe to read
	if got := len(seen); got != 3 || seen[0] != "INVITE" || seen[1] != "ACK" || seen[2] != "BYE" {
		t.Errorf("peer saw %v, want INVITE ACK BYE", seen)
	}
}

func TestStreamFramerSplitsCoalescedAndPartialMessages(t *testing.T) {
	a := "SIP/2.0 180 Ringing\r\nl: 0\r\n\r\n"
	b := "SIP/2.0 200 OK\r\nContent-Length: 4\r\n\r\nbody"
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		// One write carrying a message and a half, then the rest.
		all := a + b
		if _, err := server.Write([]byte(all[:len(a)+10])); err != nil {
			return
		}
		_, _ = server.Write([]byte(all[len(a)+10:])) // the reader may have given up; its error shows the fault
	}()
	f := newStreamFramer(client)
	for _, want := range []string{a, b} {
		got, err := f.next()
		if err != nil || string(got) != want {
			t.Fatalf("next() = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := f.next(); err == nil {
		t.Fatal("next() after the peer closed should fail")
	}
}
