package document

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// TestPublishFallbackCounted: when incremental assembly fails on a broken
// internal invariant, publication falls back to a full clone and counts it
// in doc.publish_fallback, not doc.publish_full; the epoch it installs
// still answers like the pointer-navigator reference.
func TestPublishFallbackCounted(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := FromTree(xmltree.Recursive(2, 6), Options{
		Partition: core.PartitionConfig{MaxAreaNodes: 8},
		Observe:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := reg.Counter("doc.publish_full")
	fallback := reg.Counter("doc.publish_fallback")
	incremental := reg.Counter("doc.publish_incremental")
	fullBefore := full.Value()

	// The second level-1 section hangs off the insert's root spine but lies
	// outside its update area, so CloneAlong must share it through d.m2e.
	// Dropping its entry makes the incremental assembly fail.
	untouched := d.master.DocumentElement().Children[0].Children[3]
	delete(d.m2e, untouched)
	if _, err := d.Insert("/book/section/section/section/section", 0, xmltree.NewElement("probe")); err != nil {
		t.Fatal(err)
	}
	if got := fallback.Value(); got != 1 {
		t.Fatalf("doc.publish_fallback = %d, want 1", got)
	}
	if got := full.Value(); got != fullBefore {
		t.Fatalf("doc.publish_full moved %d -> %d on a fallback", fullBefore, got)
	}
	s := d.Snapshot()
	for _, q := range append(probeQueries, "//probe") {
		got, _, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		assertMatchesOracle(t, s, q, got)
	}
	if res, _, _ := s.Query("//probe"); len(res) != 1 {
		t.Fatalf("//probe: %d results after the fallback publication, want 1", len(res))
	}

	// The full clone rebuilt the master→epoch map: the next write publishes
	// incrementally again.
	incBefore := incremental.Value()
	if _, err := d.Insert("/book/section", 0, xmltree.NewElement("after")); err != nil {
		t.Fatal(err)
	}
	if got := incremental.Value(); got != incBefore+1 || fallback.Value() != 1 {
		t.Fatalf("after recovery: incremental %d -> %d, fallback %d", incBefore, got, fallback.Value())
	}
}
