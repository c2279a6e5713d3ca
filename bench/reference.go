package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Every workload times its ops against a yardstick: a fixed piece of
// work that shares no code with the program under test and slows down
// when, and about as much as, the host slows the workload down. An op's
// time is then restated at the speed the host would have had if the
// yardstick had taken its nominal time. A change to the repository
// cannot move a yardstick, so a change that makes a workload slower
// still shows in full; what the host does to both cancels. serve-mix's
// yardstick is an HTTP exchange, the three batch workloads' an
// allocation kernel.

// The reference round trip is serve-mix's yardstick.
//
// This benchmark runs on a two-vCPU guest of a shared host whose speed
// moves in phases: for tens of seconds at a time a localhost HTTP round
// trip takes 30-70 % longer than a minute earlier, and serve-mix's
// latencies and throughput move with it, because a serve-mix request *is*
// an HTTP round trip with a small pipeline inside. Ten runs of the same
// code that straddle such a phase spread past any bound a regression gate
// could use. So every timed chunk of serve-mix is bracketed by two bursts
// of a fixed exchange that shares nothing with the program under test
// but is shaped like the mix's own — a standard-library server, a
// configuration-sized JSON request that the handler decodes, digests,
// splits into lines and sorts, a reply of a few dozen lines, the same two
// closed-loop clients — and the chunk's timings are restated at the
// speed the host would have had if the reference had taken refNominalMS:
//
//	op_ms_*   = measured × refNominalMS ÷ reference p50 around the chunk
//	ops_per_s = measured ÷ that same factor
//
// The reference tracks the host, not the program: a change to the
// repository cannot move it, so a change that makes serve-mix slower
// still shows in full. ref_ms_p50 and op_ms_p50_raw are printed beside
// the gated metrics so that the restated figures can be undone.
const (
	// refRequests is one burst, over both clients: about a sixth of a
	// second beside the second-long chunk it brackets.
	refRequests = 4000
	// refNominalMS is the reference p50 in this container's quiet
	// phases; it only fixes the scale the restated figures are read on.
	refNominalMS = 0.09
)

// refText is a device configuration's worth of text (2 kB, 120 lines).
var refText = strings.Repeat("interface Ethernet0/1\n ip address 10.0.1.1/24\n ip ospf cost 3\n!\n", 30)

// refReplyLines is how many of the sorted lines the reply carries.
const refReplyLines = 40

// refQuery and refReply are shaped like the daemon's load and delta
// exchanges: configuration text up, a content address and a summary back.
type refQuery struct {
	Session string            `json:"session"`
	Configs map[string]string `json:"configs"`
}

type refReply struct {
	Session string   `json:"session"`
	Lines   []string `json:"lines"`
}

func refHandler(w http.ResponseWriter, r *http.Request) {
	var q refQuery
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	text := q.Configs["C"]
	digest := sha256.Sum256([]byte(text))
	lines := strings.Split(text, "\n")
	sort.Strings(lines)
	if len(lines) < refReplyLines {
		http.Error(w, "short configuration", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(refReply{Session: hex.EncodeToString(digest[:]), Lines: lines[:refReplyLines]})
}

// reference is the yardstick server.
type reference struct {
	ts *httptest.Server
}

func startReference() *reference {
	return &reference{ts: httptest.NewServer(http.HandlerFunc(refHandler))}
}

func (r *reference) close() { r.ts.Close() }

// burst makes refRequests round trips from serveClients closed-loop
// clients and returns their median latency in ms.
func (r *reference) burst() (float64, error) {
	per := refRequests / serveClients
	times := make([][]float64, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[c], errs[c] = r.roundTrips(per)
		}()
	}
	wg.Wait()
	var all []float64
	for c := range times {
		if errs[c] != nil {
			return 0, fmt.Errorf("reference round trip: %w", errs[c])
		}
		all = append(all, times[c]...)
	}
	return median(all), nil
}

func (r *reference) roundTrips(n int) ([]float64, error) {
	digest := sha256.Sum256([]byte(refText))
	want := hex.EncodeToString(digest[:])
	ms := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		body, err := json.Marshal(refQuery{Session: want, Configs: map[string]string{"C": refText}})
		if err != nil {
			return nil, err
		}
		resp, err := r.ts.Client().Post(r.ts.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var reply refReply
		if err := json.Unmarshal(data, &reply); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK || reply.Session != want || len(reply.Lines) != refReplyLines {
			return nil, fmt.Errorf("status %d, digest %.12s, %d lines", resp.StatusCode, reply.Session, len(reply.Lines))
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return ms, nil
}

// The allocation kernel is the batch workloads' yardstick. Their op
// times wander with the host by 20 % over a quarter of an hour, in user
// CPU time, while hashing, copying and pointer-chasing kernels over
// fixed buffers hold nearly still. What does move with them (correlation
// 0.75-0.8 round by round, on all three) is the Go allocator and
// collector at work on the same heap, which is what the pipeline's
// encoder and HARC builder spend their time in: this kernel. It runs
// before the first timed round and after each; a round is restated by
// the mean of the two runs around it.
const (
	allocKernelNodes = 300000
	// allocNominalMS is the kernel's time in this container's quiet
	// phases; it only fixes the scale the restated figures are read on.
	allocNominalMS = 230
)

type refNode struct {
	next *refNode
	key  string
	val  [4]int
}

// allocKernel builds a linked list and a string-keyed index of small
// heap objects, sorts the keys, and returns how long that took in ms.
// It starts from a collected heap, as every timed op does.
func allocKernel() float64 {
	runtime.GC()
	t0 := time.Now()
	index := make(map[string]*refNode)
	var head *refNode
	for i := 0; i < allocKernelNodes; i++ {
		n := &refNode{next: head, key: strconv.Itoa(i)}
		head = n
		index[n.key] = n
	}
	keys := make([]string, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	runtime.KeepAlive(head)
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
