package document

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/storage"
	"repro/internal/xmltree"
)

// Group-commit write path. Every write publishes through applyBatchLocked:
// a synchronous Insert or Delete is a batch of one, and the commit loop
// below hands it larger batches. Epoch publication dominates the cost of a
// single-mutation write: the §3.2 re-enumeration touches one UID-local
// area, but publishing it still clones the root spine, re-encodes the
// touched posting lists and swaps the snapshot pointer. Group commit
// amortizes exactly that part. Writers enqueue mutations into a bounded
// intake queue (optionally behind a WAL, where an Enqueue return IS the
// durability acknowledgment); a commit loop drains up to MaxBatch of them,
// applies each to the master one at a time — every mutation still
// area-confined, with per-mutation rollback — and then publishes ONE epoch
// whose scope is the union of the batch's update areas (core.MergeDeltas):
// one CloneAlong, one CloneDelta, one index patch, one atomic pointer
// store, however many mutations rode along.
//
// Durability and visibility are deliberately split: Enqueue returns when
// the mutation is durable (per the WAL's sync policy), Ticket.Wait returns
// when it is visible (its epoch published). Readers keep pinning epochs
// wait-free through the atomic snapshot pointer and never observe a
// partially applied batch — the commit loop publishes after the whole
// batch's records are on disk (WAL.SyncTo) and after every member was
// applied, so a crash at any point either replays a mutation from the log
// or loses an unacknowledged one, never tears a batch across epochs.

// GroupConfig configures EnableGroupCommit.
type GroupConfig struct {
	// MaxBatch caps the mutations coalesced into one epoch publication.
	// 0 selects the default, 64.
	MaxBatch int
	// MaxDelay is how long the commit loop lingers for followers after the
	// first mutation of a batch arrives. 0 selects the default, 500µs; a
	// negative value disables lingering (publish whatever is queued).
	MaxDelay time.Duration
	// QueueDepth bounds the intake queue; a full queue blocks Enqueue
	// (admission backpressure). 0 selects 4×MaxBatch.
	QueueDepth int
	// WAL, when non-nil, makes enqueued mutations durable before they are
	// acknowledged: each mutation is appended as one record before it
	// enters the queue, and the document takes ownership of the WAL
	// (DisableGroupCommit closes it). Replay an existing log with
	// ReplayWAL before enabling group commit over it.
	WAL *storage.WAL
}

func (cfg GroupConfig) withDefaults() GroupConfig {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 500 * time.Microsecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	return cfg
}

// ErrNoGroupCommit reports an Enqueue against a document whose group-commit
// path is not enabled.
var ErrNoGroupCommit = errors.New("document: group commit not enabled")

// ErrDocumentClosed reports an Enqueue racing DisableGroupCommit. Note the
// mutation may already be durable in the WAL (and will replay on recovery)
// even when Enqueue returns this error.
var ErrDocumentClosed = errors.New("document: group commit closed")

// pendingOp is one queued mutation.
type pendingOp struct {
	insert bool
	parent string
	pos    int
	child  *xmltree.Node // insert only
	seq    int64         // WAL sequence number; 0 without a WAL

	// rc is the enqueuing request's trace, stamped with pipeline stages as
	// the op crosses goroutines (enqueue→wal_append→fsync_done on the
	// writer, dequeue→merged→published→visible on the commit loop). Nil
	// for untraced writers and WAL replay; every Stamp no-ops then.
	rc *obs.RequestCtx

	stats scheme.UpdateStats
	err   error
	done  chan struct{}
}

// Ticket is a writer's handle on one enqueued mutation. Enqueue returning
// the ticket is the durability acknowledgment (per the WAL sync policy);
// Wait blocks until the mutation is visible — its batch's epoch published —
// and reports the mutation's own outcome.
type Ticket struct{ op *pendingOp }

// Seq returns the mutation's WAL sequence number, 0 when the group commit
// runs without a WAL.
func (t *Ticket) Seq() int64 { return t.op.seq }

// Done is closed when the mutation's batch has been decided (published or
// failed).
func (t *Ticket) Done() <-chan struct{} { return t.op.done }

// Wait blocks until the mutation is visible or ctx ends, and returns the
// §3.2 relabeling statistics exactly as the synchronous Insert/Delete
// would. A batch member that failed mid-merge gets its own error while the
// rest of the batch publishes (rollback atomicity is per mutation); a
// publication failure fails every member.
func (t *Ticket) Wait(ctx context.Context) (scheme.UpdateStats, error) {
	select {
	case <-t.op.done:
		return t.op.stats, t.op.err
	case <-ctx.Done():
		return scheme.UpdateStats{}, ctx.Err()
	}
}

// groupMetrics are the write-path instruments (nil when unobserved).
type groupMetrics struct {
	batchSize *obs.Histogram
	batches   *obs.Counter
	applied   *obs.Counter
	failed    *obs.Counter
	enqueued  *obs.Counter
}

type groupCommitter struct {
	d   *Document
	cfg GroupConfig

	// emu orders the WAL append and the queue send as one atomic step, so
	// the queue drains in WAL sequence order and a crash-recovery replay
	// applies exactly the live application order. The durability wait
	// happens outside emu — that is where group fsyncs coalesce.
	emu  sync.Mutex
	ch   chan *pendingOp
	quit chan struct{}
	done chan struct{}

	// inflight counts ops dequeued into the current batch but not yet
	// decided; queue_depth + inflight is the publish-pipeline depth.
	inflight atomic.Int64

	gm *groupMetrics
}

// EnableGroupCommit starts the document's group-commit write path: a
// background commit loop that coalesces queued mutations (EnqueueInsert,
// EnqueueDelete) into batched epoch publications. Synchronous Insert and
// Delete keep working as batches of one; they serialize with the loop's
// batches on the writer mutex, at unspecified order relative to queued
// mutations, and bypass the WAL. Fails on cold-opened (read-only)
// documents, non-updatable schemes, and when already enabled.
func (d *Document) EnableGroupCommit(cfg GroupConfig) error {
	if d.readonly {
		return ErrColdDocument
	}
	if d.num == nil {
		if _, ok := d.gs.(scheme.Updatable); !ok {
			return fmt.Errorf("%w: scheme %q", ErrReadOnlyScheme, d.schemeName)
		}
	}
	cfg = cfg.withDefaults()
	gc := &groupCommitter{
		d:    d,
		cfg:  cfg,
		ch:   make(chan *pendingOp, cfg.QueueDepth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	if !d.grp.CompareAndSwap(nil, gc) {
		return errors.New("document: group commit already enabled")
	}
	if d.reg != nil {
		gc.gm = &groupMetrics{
			batchSize: d.reg.Histogram("write.batch_size"),
			batches:   d.reg.Counter("write.batches"),
			applied:   d.reg.Counter("write.applied"),
			failed:    d.reg.Counter("write.failed"),
			enqueued:  d.reg.Counter("write.enqueued"),
		}
		d.reg.RegisterFunc("write.queue_depth", func() int64 { return int64(len(gc.ch)) })
		d.reg.RegisterFunc("write.pipeline_depth", func() int64 {
			return int64(len(gc.ch)) + gc.inflight.Load()
		})
		if w := cfg.WAL; w != nil {
			d.reg.RegisterFunc("write.wal_appends", func() int64 { return w.Stats().Appends })
			d.reg.RegisterFunc("write.wal_fsyncs", func() int64 { return w.Stats().Syncs })
			d.reg.RegisterFunc("write.wal_bytes", func() int64 { return w.Stats().Bytes })
		}
	}
	go gc.loop()
	return nil
}

// GroupCommit reports whether the group-commit path is enabled.
func (d *Document) GroupCommit() bool { return d.grp.Load() != nil }

// DisableGroupCommit flushes every queued mutation, stops the commit loop
// and closes the WAL (if any). Safe to call when not enabled.
func (d *Document) DisableGroupCommit() error {
	gc := d.grp.Swap(nil)
	if gc == nil {
		return nil
	}
	close(gc.quit)
	<-gc.done
	if gc.cfg.WAL != nil {
		return gc.cfg.WAL.Close()
	}
	return nil
}

// Close releases the document's background resources: today that is the
// group-commit loop and its WAL. Queries against already-pinned snapshots
// stay valid.
func (d *Document) Close() error { return d.DisableGroupCommit() }

// EnqueueInsert queues an Insert for the next batch and returns once the
// mutation is durable (per the WAL sync policy; immediately without a WAL).
// Visibility — and the §3.2 statistics — come from Ticket.Wait. On an
// error return the mutation was not queued, except for ErrDocumentClosed
// and WAL-sync failures, where the record may already be durable.
func (d *Document) EnqueueInsert(parentPath string, pos int, child *xmltree.Node) (*Ticket, error) {
	return d.EnqueueInsertCtx(context.Background(), parentPath, pos, child)
}

// EnqueueInsertCtx is EnqueueInsert carrying the caller's context: a
// request trace in ctx (obs.WithRequest) rides the ticket through the
// asynchronous pipeline and collects the per-stage write breakdown. The
// context is NOT a cancellation handle here — enqueue-side blocking
// (backpressure, the durability wait) is bounded by the write path itself.
func (d *Document) EnqueueInsertCtx(ctx context.Context, parentPath string, pos int, child *xmltree.Node) (*Ticket, error) {
	return d.enqueue(&pendingOp{insert: true, parent: parentPath, pos: pos, child: child,
		rc: obs.RequestFrom(ctx), done: make(chan struct{})})
}

// EnqueueDelete queues a Delete for the next batch; see EnqueueInsert for
// the durability/visibility split.
func (d *Document) EnqueueDelete(parentPath string, pos int) (*Ticket, error) {
	return d.EnqueueDeleteCtx(context.Background(), parentPath, pos)
}

// EnqueueDeleteCtx is EnqueueDelete carrying the caller's context; see
// EnqueueInsertCtx.
func (d *Document) EnqueueDeleteCtx(ctx context.Context, parentPath string, pos int) (*Ticket, error) {
	return d.enqueue(&pendingOp{parent: parentPath, pos: pos,
		rc: obs.RequestFrom(ctx), done: make(chan struct{})})
}

func (d *Document) enqueue(op *pendingOp) (*Ticket, error) {
	gc := d.grp.Load()
	if gc == nil {
		return nil, ErrNoGroupCommit
	}
	op.rc.Stamp(obs.StageEnqueue)
	var rec []byte
	if gc.cfg.WAL != nil {
		xml := ""
		if op.insert {
			xml = xmltree.Serialize(op.child)
		}
		rec = encodeMutation(op.insert, op.parent, op.pos, xml)
	}
	gc.emu.Lock()
	if rec != nil {
		seq, err := gc.cfg.WAL.AppendNoSync(rec)
		if err != nil {
			gc.emu.Unlock()
			return nil, err
		}
		op.seq = seq
		op.rc.Stamp(obs.StageWALAppend)
	}
	// The queue send happens under emu, right after the WAL append, so
	// intake order equals log order. The send may block on a full queue
	// (backpressure); the commit loop never takes emu, so it always drains.
	select {
	case gc.ch <- op:
	case <-gc.quit:
		gc.emu.Unlock()
		return nil, ErrDocumentClosed
	}
	gc.emu.Unlock()
	if gc.gm != nil {
		gc.gm.enqueued.Inc()
	}
	if op.seq > 0 {
		// The durability wait coalesces with concurrent enqueuers (and with
		// the commit loop's own SyncTo barrier) under SyncGroup.
		if err := gc.cfg.WAL.WaitDurable(op.seq); err != nil {
			return &Ticket{op: op}, err
		}
		op.rc.Stamp(obs.StageFsyncDone)
	}
	return &Ticket{op: op}, nil
}

func (gc *groupCommitter) loop() {
	defer close(gc.done)
	for {
		select {
		case op := <-gc.ch:
			gc.commit(gc.fill(op, true))
		case <-gc.quit:
			// Final flush: everything already queued still commits (in
			// batches), then the loop exits.
			for {
				select {
				case op := <-gc.ch:
					gc.commit(gc.fill(op, false))
				default:
					return
				}
			}
		}
	}
}

// fill collects up to MaxBatch ops starting from first, lingering up to
// MaxDelay for followers when linger is set. Every op taken is stamped
// "dequeue" here — the one chokepoint all three take sites share.
func (gc *groupCommitter) fill(first *pendingOp, linger bool) []*pendingOp {
	first.rc.Stamp(obs.StageDequeue)
	batch := append(make([]*pendingOp, 0, gc.cfg.MaxBatch), first)
	if linger && gc.cfg.MaxDelay > 0 {
		timer := time.NewTimer(gc.cfg.MaxDelay)
		defer timer.Stop()
		for len(batch) < gc.cfg.MaxBatch {
			select {
			case op := <-gc.ch:
				op.rc.Stamp(obs.StageDequeue)
				batch = append(batch, op)
			case <-timer.C:
				return batch
			case <-gc.quit:
				// Shutdown while lingering: stop waiting, take what's queued.
				linger = false
				goto drain
			}
		}
		return batch
	}
drain:
	for len(batch) < gc.cfg.MaxBatch {
		select {
		case op := <-gc.ch:
			op.rc.Stamp(obs.StageDequeue)
			batch = append(batch, op)
		default:
			return batch
		}
	}
	return batch
}

// commit makes one batch durable, applies it and publishes one epoch.
func (gc *groupCommitter) commit(batch []*pendingOp) {
	gc.inflight.Add(int64(len(batch)))
	defer gc.inflight.Add(-int64(len(batch)))
	// Publish-after-durable: nothing in this batch becomes visible before
	// its WAL records are on disk. Usually a no-op — the enqueuers' own
	// durability waits already drove a covering fsync.
	if w := gc.cfg.WAL; w != nil && w.Policy() != storage.SyncNone {
		if last := batch[len(batch)-1].seq; last > 0 {
			if err := w.SyncTo(last); err != nil {
				for _, op := range batch {
					op.err = err
					close(op.done)
				}
				if gc.gm != nil {
					gc.gm.failed.Add(uint64(len(batch)))
				}
				return
			}
		}
	}
	d := gc.d
	d.mu.Lock()
	applied := d.applyBatchLocked(batch)
	d.mu.Unlock()
	if gc.gm != nil {
		gc.gm.batches.Inc()
		gc.gm.batchSize.Observe(int64(len(batch)))
		gc.gm.applied.Add(uint64(applied))
		gc.gm.failed.Add(uint64(len(batch) - applied))
	}
	for _, op := range batch {
		if op.err == nil {
			// The epoch is published and Wait is about to be released —
			// this is the moment the mutation became readable.
			op.rc.Stamp(obs.StageVisible)
		}
		close(op.done)
	}
}

// applyBatchLocked applies every member of one batch to the master —
// each mutation individually area-confined and individually rolled back on
// failure — and publishes ONE epoch covering the successful ones. It
// returns how many members applied and publishes nothing when none did.
// Per-op outcomes land on the ops. Callers hold d.mu.
func (d *Document) applyBatchLocked(batch []*pendingOp) int {
	if d.readonly {
		for _, op := range batch {
			op.err = ErrColdDocument
		}
		return 0
	}
	if d.num == nil {
		return d.applyBatchGenericLocked(batch)
	}
	prev := d.cur.Load()
	var (
		deltas  []*core.Delta
		applied []*pendingOp
		nodes   = d.nodeCount
		depths  = d.depthSum
		fold    *dataguide.Batch
	)
	if prev != nil && prev.Guide() != nil {
		fold = prev.Guide().Begin()
	}
	// Each op resolves its parent path against the master as the batch has
	// left it so far: any earlier member, insert or delete, may change which
	// element a path matches first, exactly as between serial writes.
	for _, op := range batch {
		parent, err := d.findOneLocked(op.parent)
		if err != nil {
			op.err = err
			continue
		}
		var delta *core.Delta
		if op.insert {
			op.stats, delta, err = d.num.InsertChildDelta(parent, op.pos, op.child)
			if err != nil {
				op.err = err
				continue
			}
			c, dd := subtreeStats(op.child, parent.Depth()+1)
			nodes += c
			depths += dd
		} else {
			op.stats, delta, err = d.num.DeleteChildDelta(parent, op.pos)
			if err != nil {
				op.err = err
				continue
			}
			c, dd := subtreeStats(delta.Removed, parent.Depth()+1)
			nodes -= c
			depths -= dd
		}
		deltas = append(deltas, delta)
		// The guide update folds EAGERLY, at apply time, because the fold
		// walks the subtree: an inserted subtree must be counted as it was
		// inserted, before a later batch member deletes inside it (whose own
		// fold then subtracts exactly that part). A deferred walk would see
		// the post-batch shape and double-subtract. The batch fold shares
		// ONE guide copy across the whole run — a per-mutation guide clone
		// is what group commit amortizes away.
		foldGuideUpdate(fold, delta)
		op.rc.Stamp(obs.StageMerged)
		applied = append(applied, op)
	}
	if len(deltas) == 0 {
		return 0
	}
	var guide *dataguide.Guide
	if fold != nil {
		guide = fold.Guide()
	}
	if err := d.publishBatchLocked(prev, deltas, guide, nodes, depths); err != nil {
		for _, op := range applied {
			op.err = err
		}
		return 0
	}
	for _, op := range applied {
		op.rc.Stamp(obs.StagePublished)
	}
	return len(applied)
}

// foldGuideUpdate accumulates one mutation's DataGuide update into the
// batch fold. A nil or broken fold stays broken; publication then rebuilds
// the guide from the master.
func foldGuideUpdate(fold *dataguide.Batch, delta *core.Delta) {
	if fold == nil {
		return
	}
	sub, sign := delta.Inserted, +1
	if sub == nil {
		sub, sign = delta.Removed, -1
	}
	if sub == nil {
		return
	}
	var prefix []string
	for p := delta.Parent; p != nil && p.Kind == xmltree.Element; p = p.Parent {
		prefix = append(prefix, p.Name)
	}
	for i, j := 0, len(prefix)-1; i < j; i, j = i+1, j-1 {
		prefix[i], prefix[j] = prefix[j], prefix[i]
	}
	fold.Update(prefix, sub, sign)
}

// applyBatchGenericLocked is applyBatchLocked for non-ruid schemes: every
// member applies through the scheme's Updatable interface, then ONE full
// clone publication covers the batch.
func (d *Document) applyBatchGenericLocked(batch []*pendingOp) int {
	upd, ok := d.gs.(scheme.Updatable)
	if !ok {
		err := fmt.Errorf("%w: scheme %q", ErrReadOnlyScheme, d.schemeName)
		for _, op := range batch {
			op.err = err
		}
		return 0
	}
	var applied []*pendingOp
	nodes, depths := d.nodeCount, d.depthSum
	for _, op := range batch {
		parent, err := d.findOneLocked(op.parent)
		if err != nil {
			op.err = err
			continue
		}
		if op.insert {
			op.stats, err = upd.InsertChild(parent, op.pos, op.child)
			if err != nil {
				op.err = err
				continue
			}
			c, dd := subtreeStats(op.child, parent.Depth()+1)
			nodes += c
			depths += dd
		} else {
			if op.pos < 0 || op.pos >= len(parent.Children) {
				op.err = fmt.Errorf("document: delete position %d out of range", op.pos)
				continue
			}
			removed := parent.Children[op.pos]
			op.stats, err = upd.DeleteChild(parent, op.pos)
			if err != nil {
				op.err = err
				continue
			}
			c, dd := subtreeStats(removed, parent.Depth()+1)
			nodes -= c
			depths -= dd
		}
		op.rc.Stamp(obs.StageMerged)
		applied = append(applied, op)
	}
	if len(applied) == 0 {
		return 0
	}
	if err := d.publishGenericLocked(nodes, depths); err != nil {
		for _, op := range applied {
			op.err = err
		}
		return 0
	}
	for _, op := range applied {
		op.rc.Stamp(obs.StagePublished)
	}
	return len(applied)
}

// Mutation record payload, the document layer's WAL encoding:
//
//	u8 version (1) | u8 op ('I' or 'D') | uvarint pos |
//	uvarint len(parentPath) | parentPath | uvarint len(xml) | xml
//
// The xml field is the serialized inserted subtree; empty for deletes.
const mutationRecordVersion = 1

func encodeMutation(insert bool, parent string, pos int, xml string) []byte {
	op := byte('D')
	if insert {
		op = 'I'
	}
	buf := make([]byte, 0, 2+3*binary.MaxVarintLen64+len(parent)+len(xml))
	buf = append(buf, mutationRecordVersion, op)
	buf = binary.AppendUvarint(buf, uint64(pos))
	buf = binary.AppendUvarint(buf, uint64(len(parent)))
	buf = append(buf, parent...)
	buf = binary.AppendUvarint(buf, uint64(len(xml)))
	buf = append(buf, xml...)
	return buf
}

var errBadMutationRecord = errors.New("document: malformed WAL mutation record")

func decodeMutation(rec []byte) (insert bool, parent string, pos int, xml string, err error) {
	if len(rec) < 2 || rec[0] != mutationRecordVersion || (rec[1] != 'I' && rec[1] != 'D') {
		return false, "", 0, "", errBadMutationRecord
	}
	insert = rec[1] == 'I'
	b := rec[2:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	str := func() (string, bool) {
		n, ok := next()
		if !ok || uint64(len(b)) < n {
			return "", false
		}
		s := string(b[:n])
		b = b[n:]
		return s, true
	}
	p, ok := next()
	if !ok {
		return false, "", 0, "", errBadMutationRecord
	}
	parent, ok = str()
	if !ok {
		return false, "", 0, "", errBadMutationRecord
	}
	xml, ok = str()
	if !ok || len(b) != 0 {
		return false, "", 0, "", errBadMutationRecord
	}
	return insert, parent, int(p), xml, nil
}

// ReplayWAL applies recovered mutation records (in log order) to the
// document and publishes AT MOST ONE epoch at the end, so recovery never
// exposes a partially replayed state: before the publish, readers see the
// base image; after it, every durable mutation. Records that fail to
// decode or to apply are counted in skipped — a deterministic failure
// (e.g. a parent path that no longer matches) failed identically in the
// crashed process and was never acknowledged as visible. Call before
// EnableGroupCommit, with the records collected by storage.OpenWAL.
func (d *Document) ReplayWAL(records [][]byte) (applied, skipped int, err error) {
	if len(records) == 0 {
		return 0, 0, nil
	}
	batch := make([]*pendingOp, 0, len(records))
	for _, rec := range records {
		insert, parent, pos, xml, derr := decodeMutation(rec)
		if derr != nil {
			skipped++
			continue
		}
		op := &pendingOp{insert: insert, parent: parent, pos: pos, done: make(chan struct{})}
		if insert {
			child, perr := parseSubtree(xml)
			if perr != nil {
				skipped++
				continue
			}
			op.child = child
		}
		batch = append(batch, op)
	}
	if len(batch) == 0 {
		return 0, skipped, nil
	}
	d.mu.Lock()
	applied = d.applyBatchLocked(batch)
	d.mu.Unlock()
	for _, op := range batch {
		if op.err != nil {
			skipped++
		}
	}
	return applied, skipped, nil
}

// parseSubtree parses one serialized XML element into a detached subtree.
func parseSubtree(src string) (*xmltree.Node, error) {
	doc, err := xmltree.ParseString(src)
	if err != nil {
		return nil, err
	}
	el := doc.DocumentElement()
	if el == nil {
		return nil, errors.New("document: WAL record holds no element")
	}
	el.Detach()
	return el, nil
}
