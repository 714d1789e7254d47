// Distributed run over TCP: launches several OS-level worker processes on
// localhost, each holding the full graph (the paper's standing assumption),
// and runs the epoch-based MPI algorithm (paper Algorithm 2) across them
// through the public API's TCP backend. The same binary works across real
// hosts — give every rank the full host:port list.
//
// Run with:
//
//	go run ./examples/distributed            # parent: spawns 3 worker processes
//	go run ./examples/distributed -rank N -hosts a:p1,b:p2,c:p3   # worker
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/betweenness"
	"repro/graph"
)

const ranks = 3

func main() {
	var (
		rank  = flag.Int("rank", -1, "worker rank (internal)")
		hosts = flag.String("hosts", "", "host:port per rank (internal)")
	)
	flag.Parse()
	if *rank >= 0 {
		worker(*rank, strings.Split(*hosts, ","))
		return
	}
	parent()
}

// parent reserves ports, spawns one worker process per rank, and waits.
func parent() {
	addrs := make([]string, ranks)
	lns := make([]net.Listener, ranks)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	hostList := strings.Join(addrs, ",")
	fmt.Printf("spawning %d worker processes: %s\n", ranks, hostList)

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmds := make([]*exec.Cmd, ranks)
	for r := 0; r < ranks; r++ {
		cmd := exec.Command(exe, "-rank", fmt.Sprint(r), "-hosts", hostList)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("rank %d failed: %v", r, err)
		}
	}
	fmt.Println("all ranks finished")
}

// worker is one rank of the TCP world.
func worker(rank int, addrs []string) {
	// Every rank builds the identical graph (same seed) — in production the
	// ranks would each load the same file; the graph must fit in each
	// process's memory, per the paper's design.
	g := graph.RMAT(graph.Graph500(13, 16, 2024))
	g, _, err := graph.LargestComponent(g)
	if err != nil {
		log.Fatalf("rank %d: %v", rank, err)
	}

	start := time.Now()
	res, err := betweenness.Estimate(context.Background(), betweenness.Undirected(g),
		betweenness.WithEpsilon(0.015),
		betweenness.WithDelta(0.1),
		betweenness.WithSeed(7),
		betweenness.WithThreads(4),
		betweenness.WithExecutor(betweenness.TCP(rank, addrs)))
	if err != nil {
		log.Fatalf("rank %d: %v", rank, err)
	}
	if res.Estimates != nil {
		fmt.Printf("rank 0: %d nodes, %d edges -> tau=%d, %d epochs, %v total\n",
			g.NumNodes(), g.NumEdges(), res.Tau, res.Distributed.Epochs,
			time.Since(start).Round(time.Millisecond))
		fmt.Printf("rank 0: barrier wait %v, blocking reduce %v, comm %0.2f MiB/epoch\n",
			res.Distributed.BarrierWait.Round(time.Microsecond),
			res.Distributed.ReduceTime.Round(time.Microsecond),
			float64(res.Distributed.CommVolumePerEpoch)/(1<<20))
		fmt.Println("rank 0: top-5 central vertices:")
		for i, v := range res.TopK(5) {
			fmt.Printf("  %d. vertex %6d  b~ = %.5f\n", i+1, v, res.Estimates[v])
		}
	} else {
		fmt.Printf("rank %d done (sampled for %v)\n", rank, time.Since(start).Round(time.Millisecond))
	}

	// The executor contract is workload-generic: the same TCP world (a new
	// connection round, same ranks) also runs the directed scenario. Every
	// rank builds the identical digraph and passes the identical workload
	// kind; rank 0 gets the estimates.
	dg := graph.RandomDigraph(1<<13, 1<<16, 2024)
	dres, err := betweenness.Estimate(context.Background(), betweenness.Directed(dg),
		betweenness.WithEpsilon(0.015),
		betweenness.WithSeed(7),
		betweenness.WithThreads(4),
		betweenness.WithExecutor(betweenness.TCP(rank, addrs)))
	if err != nil {
		log.Fatalf("rank %d (directed): %v", rank, err)
	}
	if dres.Estimates != nil {
		fmt.Printf("rank 0: directed workload on the same world -> tau=%d, %d epochs\n",
			dres.Tau, dres.Distributed.Epochs)
	}
}
