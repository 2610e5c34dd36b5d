// Example graphd: starts the job service in-process on a loopback
// port, then drives it exactly like an HTTP client would — submits a
// mixed batch of jobs (both engines, several algorithms) against one
// shared dataset, polls them to completion, and prints the per-job
// metrics plus the catalog and job-manager counters (read in process:
// over HTTP they are /metrics) showing the dataset loaded once.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/jobs"
	"repro/internal/server"
)

func main() {
	cat := catalog.New(8, 0)
	if err := cat.Register(catalog.Spec{Name: "social", Gen: "social:scale=10,ef=4,seed=7"}); err != nil {
		log.Fatal(err)
	}
	mgr := jobs.NewManager(cat, 4)
	defer mgr.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: server.New(cat, mgr).Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("graphd serving on %s\n\n", base)

	requests := []jobs.Request{
		{Algorithm: "pagerank", Engine: "channel", Dataset: "social"},
		{Algorithm: "pagerank", Engine: "pregel", Dataset: "social"},
		{Algorithm: "wcc", Engine: "channel", Variant: "propagation", Dataset: "social"},
		{Algorithm: "wcc", Engine: "pregel", Dataset: "social"},
		{Algorithm: "sv", Engine: "channel", Variant: "both", Dataset: "social"},
		{Algorithm: "scc", Engine: "pregel", Dataset: "social"},
	}
	ids := make([]string, 0, len(requests))
	for _, req := range requests {
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var snap jobs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			log.Fatalf("submit %+v: HTTP %d", req, resp.StatusCode)
		}
		ids = append(ids, snap.ID)
	}

	fmt.Printf("%-10s %-10s %-8s %-12s %6s %12s %10s\n",
		"job", "algorithm", "engine", "variant", "steps", "net(bytes)", "state")
	for i, id := range ids {
		snap := waitDone(base, id)
		variant := snap.Request.Variant
		if variant == "" {
			variant = "basic"
		}
		steps, netBytes := 0, int64(0)
		if snap.Metrics != nil {
			steps, netBytes = snap.Metrics.Supersteps, snap.Metrics.NetBytes
		}
		fmt.Printf("%-10s %-10s %-8s %-12s %6d %12d %10s\n",
			id, requests[i].Algorithm, requests[i].Engine, variant, steps, netBytes, snap.State)
	}

	cs, js := cat.Stats(), mgr.Stats()
	fmt.Printf("\ncatalog: %d load(s), %d hit(s), %d bytes resident\n",
		cs.Loads, cs.Hits, cs.Bytes)
	fmt.Printf("jobs:    %d submitted, %d done, %d failed\n",
		js.Submitted, js.Done, js.Failed)
	if cs.Loads != 1 {
		fmt.Println("unexpected: dataset should have loaded exactly once")
		os.Exit(1)
	}
}

func waitDone(base, id string) jobs.Snapshot {
	for {
		var snap jobs.Snapshot
		mustGet(base+"/v1/jobs/"+id, &snap)
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mustGet(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
