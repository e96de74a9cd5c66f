// Command dcldevmgr runs the dOpenCL device manager (Section IV of the
// paper): the central service that assigns devices of managed daemons to
// client applications via leases.
//
//	dcldevmgr -listen :7080
//
// Sharded mode runs one member of a replicated control plane: device
// ownership is rendezvous-partitioned over the shard set, shards gossip
// health and membership epochs, and daemons/clients learn the live map
// from any member:
//
//	dcldevmgr -listen :7080 -self mgr0:7080 -shards mgr0:7080,mgr1:7080,mgr2:7080
package main

import (
	"flag"
	"log"
	"net"
	"strings"
	"time"

	"dopencl/internal/devmgr"
)

func main() {
	listen := flag.String("listen", ":7080", "TCP address to listen on")
	self := flag.String("self", "", "this shard's address in the membership list (sharded mode)")
	shards := flag.String("shards", "", "comma-separated shard membership, including -self (sharded mode)")
	gossipEvery := flag.Duration("gossip-interval", time.Second, "shard-to-shard health gossip interval (sharded mode)")
	gossipTimeout := flag.Duration("gossip-timeout", 3*time.Second, "gossip probe timeout before a peer is declared dead")
	healthEvery := flag.Duration("health-interval", 5*time.Second, "daemon health probe interval (0 disables)")
	healthTimeout := flag.Duration("health-timeout", 15*time.Second, "daemon health probe timeout")
	flag.Parse()

	opts := []devmgr.Option{devmgr.WithLogf(log.Printf)}

	sharded := *shards != ""
	if sharded {
		members := strings.Split(*shards, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		if *self == "" {
			log.Fatal("dcldevmgr: -shards requires -self")
		}
		found := false
		for _, m := range members {
			if m == *self {
				found = true
			}
		}
		if !found {
			log.Fatalf("dcldevmgr: -self %q is not in -shards %v", *self, members)
		}
		opts = append(opts, devmgr.WithShard(*self, members, func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}))
	}

	m := devmgr.New(opts...)
	if sharded {
		stop := m.StartGossip(*gossipEvery, *gossipTimeout)
		defer stop()
	}
	if *healthEvery > 0 {
		stop := m.StartHealthChecks(*healthEvery, *healthTimeout)
		defer stop()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("dcldevmgr: %v", err)
	}
	if sharded {
		log.Printf("dcldevmgr: shard %s listening on %s (members %s)", *self, *listen, *shards)
	} else {
		log.Printf("dcldevmgr: listening on %s", *listen)
	}
	if err := m.Serve(l); err != nil {
		log.Fatalf("dcldevmgr: %v", err)
	}
}
