//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
)

// probeInput is what the layer probe (bench/layers) reads on stdin: the
// messages the proxy receives in one call or registration of this workload
// and seed. {n} is left open so each replay is a new transaction;
// {proxyvia}, {nonce} and {resp} depend on what the engine answered and are
// filled in by the probe.
type probeInput struct {
	Reliable bool     `json:"reliable"`
	Auth     bool     `json:"auth"`
	Domain   string   `json:"domain"`
	User     string   `json:"user"`
	Setup    []string `json:"setup"`
	Inbound  []string `json:"inbound"`
}

// buildFlow renders the flow with the generator's own templates, for the
// users and run id newGenerator derives from the same seed.
func buildFlow(wl *workload, seed uint64) probeInput {
	run, order := seedInputs(seed)
	in := probeInput{Reliable: wl.network == "tcp", Auth: wl.register, Domain: benchDomain}
	near := &endpoint{network: wl.network, local: "127.0.0.1:5071"}
	far := &endpoint{network: wl.network, local: "127.0.0.1:5072"}

	if wl.register {
		in.User = fmt.Sprintf("user%d", order[0])
		first, second := registerTexts(identity{tag: run + "r0", domain: benchDomain}, near)
		in.Inbound = []string{
			strings.NewReplacer("{user}", in.User, "{cseq}", "1000000002").Replace(first),
			strings.NewReplacer("{user}", in.User, "{cseq}", "1000000003").Replace(second),
		}
		return in
	}

	callerUser, calleeUser := fmt.Sprintf("user%d", order[0]), fmt.Sprintf("user%d", order[1])
	in.User = calleeUser
	reg, _ := registerTexts(identity{tag: run + "c0y", domain: benchDomain}, far)
	in.Setup = []string{strings.NewReplacer("{user}", calleeUser, "{cseq}", "1000000000").Replace(reg)}

	cal := &callee{user: calleeUser}
	cal.ep.Store(far)
	invite, ack, bye := callTexts(identity{tag: run + "c0", user: callerUser, domain: benchDomain}, near, calleeUser)
	fix := strings.NewReplacer("{cseq}", "1000000002", "{totag}", "callee-"+calleeUser)
	invite, ack = fix.Replace(invite), fix.Replace(ack)
	bye = strings.NewReplacer("{cseq}", "1000000003", "{totag}", "callee-"+calleeUser).Replace(bye)
	// What the callee would see, so that its answers carry the proxy's Via.
	forwarded := func(req string) *msgView {
		req = strings.Replace(req, "Via: ", "Via: {proxyvia}\r\nVia: ", 1)
		v := &msgView{}
		if err := v.scan([]byte(req)); err != nil {
			panic(fmt.Sprintf("generator template does not scan: %v", err)) // a bug in gen.go, not an input
		}
		return v
	}
	vi, vb := forwarded(invite), forwarded(bye)
	in.Inbound = []string{
		invite,
		string(cal.response(nil, vi, "180 Ringing", true)),
		string(cal.response(nil, vi, "200 OK", true)),
		ack,
		bye,
		string(cal.response(nil, vb, "200 OK", false)),
	}
	return in
}

// layerResult is one probe's line of the probe's output.
type layerResult struct {
	NsPerCall     float64 `json:"ns_per_call"`
	AllocsPerCall float64 `json:"allocs_per_call"`
	Calls         int     `json:"calls"`
}

// layerProbe is the separately built probe binary, or the reason there is
// none.
type layerProbe struct {
	bin         string
	unavailable string
}

// buildLayers compiles bench/layers with its build tag. A failure is not an
// error of the benchmark: internal APIs may have moved since the probes
// were written, and every end-to-end metric is still reported.
func (e *env) buildLayers(ctx context.Context) *layerProbe {
	p := &layerProbe{bin: filepath.Join(e.buildDir, "layerprobe")}
	if err := e.goBuild(ctx, p.bin, "./bench/layers", "layerprobe"); err != nil {
		first := "build failed"
		for _, line := range strings.Split(err.Error(), "\n")[1:] {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				first = line
				break
			}
		}
		p.unavailable = first
	}
	return p
}

// run replays one flow through every layer. The result is nil, with the
// reason, when the probes cannot run.
func (p *layerProbe) run(ctx context.Context, in probeInput, spansPath string) (map[string]layerResult, string) {
	if p.unavailable != "" {
		return nil, p.unavailable
	}
	stdin, err := json.Marshal(in)
	if err != nil {
		return nil, err.Error()
	}
	cmd := exec.CommandContext(ctx, p.bin, "-spans", spansPath)
	cmd.Stdin = bytes.NewReader(stdin)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Sprintf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var res map[string]layerResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Sprintf("unreadable probe output: %v", err)
	}
	return res, ""
}
