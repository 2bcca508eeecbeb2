package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// maxTimeout is ruidd's default -max-timeout. A failed or shed request
// counts as this latency, so it misses every latency limit.
const maxTimeout = 30 * time.Second

// instance is one server built as ruidd builds it, served on a loopback
// port, with the benchmark's client.
type instance struct {
	srv  *server.Server
	run  *server.Running
	base string
	hc   *http.Client
}

// start builds a server with ruidd's defaults: an observe registry,
// MaxInflight = GOMAXPROCS with a 4× queue, and — when walDir is set — the
// group-commit write path with a per-document WAL under the "group" fsync
// policy and default batch and linger, as `ruidd -wal DIR` runs it.
func start(walDir string) (*instance, error) {
	s := server.New(server.Config{
		MaxTimeout: maxTimeout,
		Observe:    obs.NewRegistry(),
		GroupCommit: server.GroupCommitConfig{
			Enabled:    walDir != "",
			WALDir:     walDir,
			SyncPolicy: "group",
		},
	})
	run, err := s.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// At most nproc connections, shared by every phase of the run.
	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &instance{srv: s, run: run, base: "http://" + run.Addr(),
		hc: &http.Client{Transport: tr, Timeout: 2 * maxTimeout}}, nil
}

// stop closes the listener and the catalog, flushing and closing WALs.
func (in *instance) stop() error {
	in.hc.CloseIdleConnections()
	_ = in.run.Close()
	return in.srv.Close()
}

// open uploads every document and returns the time until the last is open.
func (in *instance) open(docs []genDoc) (time.Duration, error) {
	t0 := time.Now()
	for _, g := range docs {
		req, err := http.NewRequest(http.MethodPut, in.base+"/v1/docs/"+g.spec.name, strings.NewReader(g.src))
		if err != nil {
			return 0, err
		}
		body, status, err := in.do(req)
		if err != nil {
			return 0, err
		}
		if status != http.StatusCreated {
			return 0, fmt.Errorf("open %s: %d %s", g.spec.name, status, body)
		}
	}
	return time.Since(t0), nil
}

func (in *instance) do(req *http.Request) ([]byte, int, error) {
	resp, err := in.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (in *instance) post(path string, v any) ([]byte, int, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, in.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return in.do(req)
}

func (in *instance) getJSON(path string, v any) error {
	req, err := http.NewRequest(http.MethodGet, in.base+path, nil)
	if err != nil {
		return err
	}
	body, status, err := in.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// Outcome classes of one request, following the server's error contract.
const (
	outOK = iota
	outWrong
	outShed     // 503
	outBudget   // 422
	outDeadline // 504
	outError    // transport error or any other status
)

// sample is one completed request.
type sample struct {
	outcome int
	lat     time.Duration // from the due time (open loop) or the send (closed loop)
	late    time.Duration // open loop: how late the generator dispatched it
	rtt     time.Duration // send to response read
	end     time.Time     // when the response was read
	// Query responses.
	elapsedUS, postings, count int64
	paths                      int
	// Write responses: the request's flight-recorder ID and its pipeline
	// stages, offsets from HTTP ingress.
	traceID uint64
	stages  []obs.StageStamp
}

func classify(status int) int {
	switch status {
	case http.StatusOK:
		return outOK
	case http.StatusServiceUnavailable:
		return outShed
	case http.StatusUnprocessableEntity:
		return outBudget
	case http.StatusGatewayTimeout:
		return outDeadline
	}
	return outError
}

// query sends one count-only query, as ruidload sends them, and checks the
// answer.
func (in *instance) query(w *workload, docs []genDoc, r read) sample {
	t0 := time.Now()
	body, status, err := in.post("/v1/docs/"+r.doc+"/query", server.QueryRequest{Query: r.query})
	s := sample{end: time.Now(), outcome: classify(status)}
	s.rtt = s.end.Sub(t0)
	if err != nil {
		s.outcome = outError
		return s
	}
	if s.outcome != outOK {
		return s
	}
	var resp server.QueryResponse
	if json.Unmarshal(body, &resp) != nil {
		s.outcome = outError
		return s
	}
	s.elapsedUS, s.postings, s.count, s.paths = resp.ElapsedUS, resp.Postings, int64(resp.Count), len(resp.Paths)
	if !w.answerOK(docs, r, resp.Count) {
		logf("wrong answer: %s on %s = %d", r.query, r.doc, resp.Count)
		s.outcome = outWrong
	}
	return s
}

// write sends write number j with a visibility ack.
func (in *instance) write(w *workload, doc string, j int) sample {
	path, pos, xml := w.writeOp(j)
	op := "insert"
	if xml == "" {
		op = "delete"
	}
	t0 := time.Now()
	body, status, err := in.post("/v1/docs/"+doc+"/"+op+"?wait=visible",
		server.WriteRequest{Parent: path, Pos: pos, XML: xml, WaitVisible: true})
	s := sample{end: time.Now(), outcome: classify(status)}
	s.rtt = s.end.Sub(t0)
	if err != nil {
		s.outcome = outError
		return s
	}
	if s.outcome != outOK {
		logf("write %d (%s %s): %d %s", j, op, path, status, body)
		return s
	}
	var resp server.WriteResponse
	if json.Unmarshal(body, &resp) != nil {
		s.outcome = outError
		return s
	}
	s.traceID, s.stages = resp.TraceID, resp.Stages
	return s
}

// verify checks every document's node count and every query's answer
// against the generated reference.
func (in *instance) verify(w *workload, docs []genDoc) error {
	var list struct {
		Docs []server.DocInfo `json:"docs"`
	}
	if err := in.getJSON("/v1/docs", &list); err != nil {
		return err
	}
	nodes := map[string]int{}
	for _, d := range list.Docs {
		nodes[d.Name] = d.Nodes
	}
	for _, g := range docs {
		if nodes[g.spec.name] != g.nodes {
			return fmt.Errorf("document %s has %d nodes, want %d", g.spec.name, nodes[g.spec.name], g.nodes)
		}
		for q, ref := range g.refs {
			s := in.query(w, docs, read{g.spec.name, q})
			if s.outcome != outOK || s.count != int64(ref) {
				return fmt.Errorf("%s on %s: outcome %d count %d, want %d", q, g.spec.name, s.outcome, s.count, ref)
			}
		}
	}
	return nil
}

// catalogNodes sums the node counts of the generated documents.
func catalogNodes(docs []genDoc) int {
	n := 0
	for _, g := range docs {
		n += g.nodes
	}
	return n
}

// flight fetches the flight recorder's recent-request ring.
func (in *instance) flight() ([]obs.RequestSummary, error) {
	var v struct {
		Requests []obs.RequestSummary `json:"requests"`
	}
	err := in.getJSON("/v1/debug/requests", &v)
	return v.Requests, err
}

// metrics scrapes /metrics into sample name → value for unlabeled samples
// (histograms contribute their _sum and _count).
func (in *instance) metrics() (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, in.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	body, status, err := in.do(req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
