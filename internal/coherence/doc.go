// Package coherence implements the interval-keyed MSI region directory
// of the dOpenCL client: the data structure that decides, for every byte
// range of a distributed buffer, which copies (host cache or per-daemon
// remote buffers) are valid and how an invalid range becomes valid.
//
// The directory is a sorted list of disjoint spans partitioning
// [0, size). Each span carries a uniform coherence state for the host
// copy and for every holder (daemon connection); spans split on demand
// when an operation touches a sub-range and re-merge when adjacent spans
// converge to identical state, so the directory stays proportional to
// the number of distinct regions, not the number of operations.
//
// # State machine
//
// Every copy of a range is in one of the three MSI states. The span
// invariants are: at most one copy is Modified, and if some copy is
// Modified every other copy is Invalid.
//
//	       Claim(h) by another holder,
//	       RollbackClaim, Invalidate
//	    ┌───────────────────────────────┐
//	    ▼                               │
//	┌───────┐   Validate(h) /        ┌──┴─────┐
//	│Invalid│ ─ ValidateForward ───▶ │ Shared │
//	└───┬───┘                        └──┬─────┘
//	    │                               │
//	    │ Claim(h)            Claim(h)  │  ▲ ValidateHost /
//	    │                               │  │ ValidateForward
//	    ▼                               ▼  │ (M→S read downgrade)
//	    └─────────────────────────▶ ┌──────┴───┐
//	                                │ Modified │
//	                                └──────────┘
//
// Transitions are optimistic: enqueues are one-way and the common case
// is success, so Claim records Modified immediately and returns a
// snapshot + generation ticket; if the command later fails, RollbackClaim
// restores the range's prior state when (and only when) nothing else
// mutated the range in between — otherwise only the failed claim itself
// is withdrawn. The same deferred-failure discipline covers the
// Shared-claim paths (Invalidate / SettleForward revoke an optimistic
// Shared copy rather than ever leaving a false-valid one).
//
// # Gates
//
// The directory also keeps the ordering edges that queue order cannot
// give, because coherence transfers run outside the application's
// queues. Per span and holder: lastWrite, the most recent writing
// command (a coherence read of that copy waits on it); inbound, a
// forward still landing there (readers and writers of the copy wait on
// it); outbound, a forward still reading there (writers wait on it, or
// the payload could carry their data to a consumer enqueued before
// them). InboundGates and WriteGates hand them to the command about to
// run.
//
// # Representation
//
// A span keeps its per-holder record as one short slice of entries, one
// per holder with a state or a gate: the holder, its copy's state, whether
// it is listed (New lists every holder; an unlisted holder reads as
// Invalid), whether a failed command dropped the span's last copy there,
// the incarnation stamp (connection and epoch) it was set under and its
// three gates. A buffer has a handful of holders, so a scan costs less
// than hashing, and the snapshot Claim takes for a rollback is one slice
// copy per span. Entries that say nothing — unlisted, not failed, no gate
// left — are dropped when the directory merges.
//
// # Lost ranges
//
// Loss is derived, never recorded. A holder reports its Incarnation —
// connection, daemon-side state epoch, up — in one lock-free read, and
// every query compares it with the entry's stamp: a copy counts only
// while its holder is up and in the epoch the copy was made in, and a
// gate gates only while its holder is up and on the connection it was
// recorded on (the daemon clears its event table with a connection). So
// when a connection dies its holder's copies stop counting at once; a
// re-attach that finds the session retained (same epoch) brings them back
// with no record kept, and one that does not (new epoch), or the end of
// the lease, leaves them stale for good. A range with no counting copy is
// Lost — reads fail with cl.DataLost until a write re-materializes it —
// when some copy stopped counting that way or a failed command dropped
// its last copy (RollbackClaim); a range that never had a copy reads as
// cl.InvalidMemObject. Regions, LostRanges and ReadPlan all report what a
// read sees.
//
// # Synchronization
//
// A Dir performs no locking of its own: the owning buffer serializes
// all calls (the client holds one mutex over the directory and the host
// byte cache so compound read-modify-write operations stay atomic).
// Generation stamps — a global counter plus a per-span stamp of the last
// mutation — make "has this range changed since I looked" answerable
// per range, which is what keeps rollbacks and stale-read guards
// range-scoped: concurrent operations on disjoint ranges never
// invalidate each other's snapshots.
package coherence
