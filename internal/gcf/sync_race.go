//go:build race

package gcf

import "sync/atomic"

// A frame's bytes cross the socket, and so does the ordering: whatever the
// sender did before Send happens before whatever the receiver does after
// the frame arrives. The race detector has to be told. The write loop
// sends with net.Buffers.WriteTo, i.e. writev, which — unlike
// syscall.Write, whose race.ReleaseMerge pairs with syscall.Read's
// race.Acquire — publishes no happens-before edge, so every ordering that
// runs over a loopback socket (a forward's landing copy gated, two daemons
// away, on the kernel that last read the target) was reported as a race.
// This pair is that edge, for binaries built with -race only; the
// in-process transport orders its frames through its own mutex.
var ioSync atomic.Uint64

func raceRelease() { ioSync.Add(1) }
func raceAcquire() { ioSync.Load() }
