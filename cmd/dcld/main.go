// Command dcld is the dOpenCL daemon: it exposes this node's (simulated)
// OpenCL devices to remote dOpenCL clients over TCP.
//
// Device specs take the form type:count[:units], comma-separated:
//
//	dcld -listen :7079 -devices cpu:1:12,gpu:2
//
// Managed mode — set by -devmgr — registers the daemon with a device
// manager; clients then only see devices assigned to their lease:
//
//	dcld -listen :7079 -devices gpu:4 -devmgr manager:7080 -addr gpuserver:7079
//
// A single manager is a control plane of one seed. Against a sharded
// control plane, -devmgr lists seed shards; each device registers with the
// shard that owns it, and re-registers as shards die and return:
//
//	dcld -listen :7079 -devices gpu:4 -devmgr m0:7080,m1:7080 -addr gpuserver:7079
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
)

func parseDevices(spec string) ([]device.Config, error) {
	var out []device.Config
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("device spec %q: want type:count[:units]", part)
		}
		typ, err := cl.ParseDeviceType(fields[0])
		if err != nil {
			return nil, err
		}
		count, err := strconv.Atoi(fields[1])
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("device spec %q: bad count", part)
		}
		units := 4
		if len(fields) > 2 {
			units, err = strconv.Atoi(fields[2])
			if err != nil || units <= 0 {
				return nil, fmt.Errorf("device spec %q: bad unit count", part)
			}
		}
		for i := 0; i < count; i++ {
			cfg := device.TestCPU(fmt.Sprintf("%s%d", strings.ToLower(typ.String()), i))
			cfg.Type = typ
			cfg.ComputeUnits = units
			out = append(out, cfg)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no devices specified")
	}
	return out, nil
}

func main() {
	listen := flag.String("listen", ":7079", "TCP address to listen on")
	devices := flag.String("devices", "cpu:1:4", "device specs: type:count[:units],...")
	name := flag.String("name", "dcld", "server name reported to clients")
	devmgrSeeds := flag.String("devmgr", "", "comma-separated device manager addresses (one, or seed shards); set, it makes the daemon managed")
	selfAddr := flag.String("addr", "", "address clients use to reach this daemon (managed mode)")
	peerListen := flag.String("peer-listen", "", "TCP address for the daemon-to-daemon bulk plane (empty disables forwarding)")
	peerAddr := flag.String("peer-addr", "", "peer address announced to clients (defaults to -peer-listen)")
	sessionRetain := flag.Duration("session-retain", 30*time.Second, "how long a disconnected client's session state is kept for re-attachment (0 disables)")
	peerParkTTL := flag.Duration("peer-park-ttl", 0, "how long a peer payload arriving before its accept is parked (0 = 30s default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (stopped on SIGINT/SIGTERM)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on SIGINT/SIGTERM")
	flag.Parse()

	if *cpuprofile != "" || *memprofile != "" {
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				log.Fatalf("dcld: -cpuprofile: %v", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				log.Fatalf("dcld: -cpuprofile: %v", err)
			}
		}
		// The daemon serves until killed, so profiles are flushed from a
		// signal handler rather than a defer.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			s := <-sig
			if *cpuprofile != "" {
				pprof.StopCPUProfile()
			}
			if *memprofile != "" {
				if f, err := os.Create(*memprofile); err != nil {
					log.Printf("dcld: -memprofile: %v", err)
				} else {
					runtime.GC()
					if err := pprof.WriteHeapProfile(f); err != nil {
						log.Printf("dcld: -memprofile: %v", err)
					}
					f.Close()
				}
			}
			log.Printf("dcld: %v: profiles flushed, exiting", s)
			os.Exit(0)
		}()
	}

	cfgs, err := parseDevices(*devices)
	if err != nil {
		log.Fatalf("dcld: %v", err)
	}
	managed := *devmgrSeeds != ""
	if managed && *selfAddr == "" {
		log.Fatal("dcld: -devmgr requires -addr")
	}
	plat := native.NewPlatform(*name, "dOpenCL simulated vendor", cfgs)
	dcfg := daemon.Config{
		Name: *name, Platform: plat, Managed: managed, Logf: log.Printf,
		// Originating forwards needs no listener, only a dialer: every
		// TCP daemon can push buffers to peers that do listen.
		PeerDial:      func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		SessionRetain: *sessionRetain,
		PeerParkTTL:   *peerParkTTL,
	}
	dcfg.PeerAddr = *peerAddr
	if dcfg.PeerAddr == "" {
		dcfg.PeerAddr = *peerListen
	}
	if *peerAddr != "" && *peerListen == "" {
		log.Printf("dcld: -peer-addr set without -peer-listen: the announced peer address has nothing listening on it")
	}
	d, err := daemon.New(dcfg)
	if err != nil {
		log.Fatalf("dcld: %v", err)
	}
	if *peerListen != "" {
		pl, err := net.Listen("tcp", *peerListen)
		if err != nil {
			log.Fatalf("dcld: peer listen: %v", err)
		}
		go func() {
			if err := d.ServePeers(pl); err != nil {
				log.Printf("dcld: peer plane stopped: %v", err)
			}
		}()
		log.Printf("dcld: peer data plane on %s (announced as %s)", *peerListen, dcfg.PeerAddr)
	}

	if managed {
		// Register each device with the shard owning it (with one manager,
		// that one), follow epoch bumps, and re-register with jittered
		// backoff after a manager restart, an eviction or a shard's death.
		seeds := strings.Split(*devmgrSeeds, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		stop, err := d.JoinControlPlane(daemon.ControlPlaneConfig{
			Dial:     func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
			Seeds:    seeds,
			SelfAddr: *selfAddr,
		})
		if err != nil {
			log.Fatalf("dcld: %v", err)
		}
		defer stop()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("dcld: %v", err)
	}
	log.Printf("dcld: serving %d devices on %s (managed=%v)", len(cfgs), *listen, managed)
	if err := d.Serve(l); err != nil {
		log.Fatalf("dcld: %v", err)
	}
}
