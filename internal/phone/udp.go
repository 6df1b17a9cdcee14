package phone

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

// udpEndpoint is a phone's UDP side: one socket used for everything.
// Callers read it synchronously inside request(); callees run an
// answering loop, which from then on is the socket's only reader and hands
// responses to request() over resps.
type udpEndpoint struct {
	cfg   Config
	sock  *transport.UDPSocket
	proxy netip.AddrPort

	looping atomic.Bool // the answering loop owns reads
	resps   chan *sipmsg.Message

	closeOnce sync.Once
	startOnce sync.Once
	done      chan struct{}
	answering sync.WaitGroup
}

// respQueue bounds the responses the answering loop holds for request();
// a callee has at most one request in flight, so a response that finds
// the queue full is stale and dropped.
const respQueue = 8

func newUDPEndpoint(cfg Config) (*udpEndpoint, error) {
	sock, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	proxy, err := resolveUDP(cfg.ProxyAddr)
	if err != nil {
		sock.Close()
		return nil, err
	}
	return &udpEndpoint{
		cfg: cfg, sock: sock, proxy: proxy,
		resps: make(chan *sipmsg.Message, respQueue),
		done:  make(chan struct{}),
	}, nil
}

func (e *udpEndpoint) send(m *sipmsg.Message) error {
	return e.sock.WriteTo(m.Serialize(), e.proxy)
}

// udpLeg is a direct request path over the phone's own socket to an
// explicit destination (a redirect target).
type udpLeg struct {
	e   *udpEndpoint
	dst netip.AddrPort
}

func (e *udpEndpoint) directLeg(target string) (*udpLeg, error) {
	dst, err := resolveUDP(target)
	if err != nil {
		return nil, err
	}
	return &udpLeg{e: e, dst: dst}, nil
}

// resolveUDP resolves a "host:port" UDP target once, at setup.
func resolveUDP(hostport string) (netip.AddrPort, error) {
	a, err := net.ResolveUDPAddr("udp", hostport)
	if err != nil {
		return netip.AddrPort{}, err
	}
	return a.AddrPort(), nil
}

func (l *udpLeg) request(req *sipmsg.Message, method sipmsg.Method, stats *Stats) (*sipmsg.Message, error) {
	return l.e.requestTo(req, method, stats, l.dst)
}

func (l *udpLeg) send(m *sipmsg.Message) error {
	return l.e.sock.WriteTo(m.Serialize(), l.dst)
}

func (l *udpLeg) close() {}

// request implements the caller's reliability: send, wait with a deadline,
// retransmit on timeout (UDP gives no delivery guarantee), and surface the
// final response. Provisional responses (100, 180) reset the patience but
// not the retransmission budget.
func (e *udpEndpoint) request(req *sipmsg.Message, method sipmsg.Method, stats *Stats) (*sipmsg.Message, error) {
	return e.requestTo(req, method, stats, e.proxy)
}

func (e *udpEndpoint) requestTo(req *sipmsg.Message, method sipmsg.Method, stats *Stats, dst netip.AddrPort) (*sipmsg.Message, error) {
	callID := req.CallID()
	seq, _, err := req.CSeq()
	if err != nil {
		return nil, err
	}
	// Serialize once: every retransmission reuses the same wire bytes (the
	// message-level cache makes this free even if req was sent before).
	wire := req.Serialize()
	var lastErr error
	for attempt := 0; attempt <= e.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			stats.Retransmits++
		}
		if err := e.sock.WriteTo(wire, dst); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(e.cfg.ResponseTimeout)
		for {
			resp, err := e.readResponse(deadline)
			if err != nil {
				lastErr = err
				break // timeout → retransmit
			}
			if !matchesTxn(resp, callID, seq, method) {
				resp.Release()
				continue // stale response from a previous transaction
			}
			if resp.StatusCode >= 200 {
				// The final response escapes to the caller, which may hold it
				// across the whole call: hand over an unpooled copy, so the
				// parsed message goes back and sipmsg's pool ledger balances.
				final := resp.Clone()
				resp.Release()
				return final, nil
			}
			// Provisional: the proxy/callee is working on it; keep waiting.
			resp.Release()
			deadline = time.Now().Add(e.cfg.ResponseTimeout)
		}
	}
	return nil, fmt.Errorf("%w: no final response after %d attempts: %v", ErrTimeout, e.cfg.MaxRetries+1, lastErr)
}

func (e *udpEndpoint) readResponse(deadline time.Time) (*sipmsg.Message, error) {
	if e.looping.Load() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case m := <-e.resps:
			return m, nil
		case <-timer.C:
			return nil, os.ErrDeadlineExceeded
		case <-e.done:
			return nil, ErrClosed
		}
	}
	for {
		if err := e.sock.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		pkt, err := e.sock.ReadPacket()
		if err != nil {
			return nil, err
		}
		m, perr := sipmsg.Parse(pkt.Data)
		e.sock.Release(pkt)
		if perr != nil {
			continue
		}
		return m, nil
	}
}

// pending2xx is an INVITE 200 still waiting for its ACK. RFC 3261
// §13.3.1.4 puts 2xx retransmission on the UAS core, not the transaction
// layer — the proxy absorbs retransmitted INVITEs instead of relaying
// them, so a 200 lost between callee and proxy is only ever recovered by
// the callee resending it on a doubling schedule until the ACK lands. The
// proxy relays each resend to the caller.
type pending2xx struct {
	callID   string
	wire     []byte
	dst      netip.AddrPort
	deadline time.Time
	interval time.Duration
	tries    int
}

// uas2xxTries bounds the retransmission schedule: with doubling intervals
// this spans roughly 64*T1, the RFC's give-up horizon.
const uas2xxTries = 8

// uas2xxInterval picks the base retransmission interval: half the
// configured per-attempt patience so a lost 200 is resent before the
// caller burns a retry, defaulting to the RFC's T1.
func (e *udpEndpoint) uas2xxInterval() time.Duration {
	if e.cfg.ResponseTimeout > 0 {
		return e.cfg.ResponseTimeout / 2
	}
	return 500 * time.Millisecond
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// startAnswering runs the callee loop: answer every incoming request.
// Safe to call more than once (a callee re-registering must not spawn a
// second loop).
func (e *udpEndpoint) startAnswering() {
	started := false
	e.startOnce.Do(func() { started = true })
	if !started {
		return
	}
	e.looping.Store(true)
	e.answering.Add(1)
	go func() {
		defer e.answering.Done()
		var pending []pending2xx
		for {
			// Block until traffic arrives, or until the next unacknowledged
			// 200 is due for retransmission.
			deadline := time.Time{}
			for _, p := range pending {
				if deadline.IsZero() || p.deadline.Before(deadline) {
					deadline = p.deadline
				}
			}
			if err := e.sock.SetReadDeadline(deadline); err != nil {
				return
			}
			pkt, err := e.sock.ReadPacket()
			if err != nil {
				if isTimeout(err) && len(pending) > 0 {
					now := time.Now()
					kept := pending[:0]
					for _, p := range pending {
						if !p.deadline.After(now) {
							if e.sock.WriteTo(p.wire, p.dst) != nil {
								return
							}
							p.tries++
							p.interval *= 2
							if p.interval > 4*time.Second {
								p.interval = 4 * time.Second
							}
							p.deadline = now.Add(p.interval)
						}
						if p.tries < uas2xxTries {
							kept = append(kept, p)
						}
					}
					pending = kept
					continue
				}
				select {
				case <-e.done:
					return
				default:
				}
				return
			}
			m, perr := sipmsg.Parse(pkt.Data)
			src := pkt.Src
			e.sock.Release(pkt)
			if perr != nil {
				continue
			}
			if !m.IsRequest {
				// An answer to this phone's own request (a re-REGISTER).
				select {
				case e.resps <- m:
				default:
					m.Release()
				}
				continue
			}
			if m.Method == sipmsg.ACK {
				// The ACK confirms our 200: stop retransmitting it.
				callID := m.CallID()
				kept := pending[:0]
				for _, p := range pending {
					if p.callID != callID {
						kept = append(kept, p)
					}
				}
				pending = kept
			}
			var final *sipmsg.Message
			for _, resp := range answer(m, e.cfg.User, sipmsg.URI{User: e.cfg.User, Host: "127.0.0.1", Port: int(e.sock.LocalAddr().Port())}) {
				if err := e.sock.WriteTo(resp.Serialize(), src); err != nil {
					m.Release()
					return
				}
				if resp.StatusCode >= 200 {
					final = resp
				}
			}
			if m.Method == sipmsg.INVITE && final != nil && final.StatusCode < 300 {
				iv := e.uas2xxInterval()
				pending = append(pending, pending2xx{
					callID:   m.CallID(),
					wire:     final.Serialize(),
					dst:      src,
					deadline: time.Now().Add(iv),
					interval: iv,
				})
			}
			m.Release()
		}
	}()
}

func (e *udpEndpoint) close() error {
	var err error
	e.closeOnce.Do(func() {
		close(e.done)
		err = e.sock.Close()
	})
	e.answering.Wait()
	// Responses nobody collected go back to the pool.
	for {
		select {
		case m := <-e.resps:
			m.Release()
		default:
			return err
		}
	}
}
