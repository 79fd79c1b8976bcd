package sim

import (
	"testing"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("lat")
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.N() != 0 {
		t.Fatal("empty series should report zeros")
	}
	s.Add(2 * time.Millisecond)
	s.Add(4 * time.Millisecond)
	s.Add(6 * time.Millisecond)
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 4*time.Millisecond {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2*time.Millisecond || s.Max() != 6*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 12*time.Millisecond {
		t.Fatalf("Sum = %v", s.Sum())
	}
}

func TestSeriesPercentile(t *testing.T) {
	s := NewSeries("p")
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("P50 = %v, want 50ms", got)
	}
	if got := s.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("P99 = %v, want 99ms", got)
	}
	if got := s.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("P100 = %v, want 100ms", got)
	}
	if got := s.Percentile(0); got != 1*time.Millisecond {
		t.Fatalf("P0 = %v, want 1ms", got)
	}
}

func TestSeriesStddev(t *testing.T) {
	s := NewSeries("sd")
	s.Add(time.Second)
	s.Add(time.Second)
	if s.Stddev() != 0 {
		t.Fatalf("constant series stddev = %v", s.Stddev())
	}
	s2 := NewSeries("sd2")
	s2.Add(0)
	s2.Add(2 * time.Second)
	if got := s2.Stddev(); got < 0.99 || got > 1.01 {
		t.Fatalf("stddev = %v, want ~1s", got)
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.V[CtrMsgs] += 1
	c.V[CtrMsgs] += 2
	c.V[CtrFaults]++
	if c.Get("msgs") != 3 {
		t.Fatalf("msgs = %d", c.Get("msgs"))
	}
	if c.Get("absent") != 0 {
		t.Fatal("absent counter nonzero")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "faults" || names[1] != "msgs" {
		t.Fatalf("Names = %v", names)
	}
	c.Reset()
	if c.Get("msgs") != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

// TestSeriesPercentileInterleaved interleaves Add with Percentile/Min/Max
// queries: the sorted cache must be invalidated by every Add, never serving
// an order computed before later samples arrived.
func TestSeriesPercentileInterleaved(t *testing.T) {
	s := NewSeries("interleaved")
	s.Add(10 * time.Millisecond)
	if got := s.Percentile(100); got != 10*time.Millisecond {
		t.Fatalf("P100 after first Add = %v, want 10ms", got)
	}
	// A new maximum after a query: a stale cache would still report 10ms.
	s.Add(40 * time.Millisecond)
	if got := s.Percentile(100); got != 40*time.Millisecond {
		t.Fatalf("P100 after second Add = %v, want 40ms", got)
	}
	if got := s.Max(); got != 40*time.Millisecond {
		t.Fatalf("Max = %v, want 40ms", got)
	}
	// A new minimum after a query.
	s.Add(1 * time.Millisecond)
	if got := s.Min(); got != 1*time.Millisecond {
		t.Fatalf("Min = %v, want 1ms", got)
	}
	if got := s.Percentile(0); got != 1*time.Millisecond {
		t.Fatalf("P0 = %v, want 1ms", got)
	}
	// The median moves as samples land between queries.
	s.Add(2 * time.Millisecond)
	s.Add(3 * time.Millisecond)
	if got := s.Percentile(50); got != 3*time.Millisecond {
		t.Fatalf("P50 over {1,2,3,10,40}ms = %v, want 3ms", got)
	}
	// Repeated queries with no Add in between must agree (cached path).
	if a, b := s.Percentile(50), s.Percentile(50); a != b {
		t.Fatalf("repeated P50 disagreed: %v vs %v", a, b)
	}
}

// TestCountersTypedStringInterop: the typed array and the string API are
// views of the same counter — increments of the array must be visible
// through Get, and Names must report array entries exactly once.
func TestCountersTypedStringInterop(t *testing.T) {
	c := NewCounters()
	c.V[CtrMsgs]++
	c.V[CtrMsgs]++
	c.V[CtrMsgs]++
	if got := c.Get("msgs"); got != 3 {
		t.Fatalf(`Get("msgs") = %d, want 3`, got)
	}
	if got := c.V[CtrMsgs]; got != 3 {
		t.Fatalf("V[CtrMsgs] = %d, want 3", got)
	}
	names := c.Names()
	if len(names) != 1 || names[0] != "msgs" {
		t.Fatalf("Names = %v, want [msgs]", names)
	}
	c.Reset()
	if c.Get("msgs") != 0 || len(c.Names()) != 0 {
		t.Fatal("Reset did not clear the counters")
	}
}

// TestCounterNameTableGolden pins the enum→name table to the exact strings
// the protocol counters have always reported under (the names embedded in
// results_full.txt and every committed experiment record). The enum values
// may be reordered freely; these strings may not change.
func TestCounterNameTableGolden(t *testing.T) {
	golden := map[Ctr]string{
		CtrAsymCopies:         "asym_copies",
		CtrCopiesDropped:      "copies_dropped",
		CtrCopyPagerFaults:    "copy_pager_faults",
		CtrCopyRequests:       "copy_requests",
		CtrCowCopies:          "cow_copies",
		CtrDataRequests:       "data_requests",
		CtrDataSupplies:       "data_supplies",
		CtrDataUnavailable:    "data_unavailable",
		CtrDataUnlocks:        "data_unlocks",
		CtrEvictCancelled:     "evict_cancelled",
		CtrEvictDiscard:       "evict_discard",
		CtrEvictDrop:          "evict_drop",
		CtrEvictOwner:         "evict_owner",
		CtrEvictOwnerXfer:     "evict_owner_xfer",
		CtrEvictPageXfer:      "evict_page_xfer",
		CtrEvictStuck:         "evict_stuck",
		CtrEvictToPager:       "evict_to_pager",
		CtrEvictions:          "evictions",
		CtrFaultRedrives:      "fault_redrives",
		CtrFaults:             "faults",
		CtrFaultsAborted:      "faults_aborted",
		CtrFreshGrants:        "fresh_grants",
		CtrFwdDynamic:         "fwd_dynamic",
		CtrFwdGlobal:          "fwd_global",
		CtrFwdStatic:          "fwd_static",
		CtrGrantRetries:       "grant_retries",
		CtrHintEvictions:      "hint_evictions",
		CtrHintNacks:          "hint_nacks",
		CtrHomeFreshGrants:    "home_fresh_grants",
		CtrHomePagerSupplies:  "home_pager_supplies",
		CtrHomeRetries:        "home_retries",
		CtrHopEscalations:     "hop_escalations",
		CtrInvalidations:      "invalidations",
		CtrLateAcks:           "late_acks",
		CtrLateGrants:         "late_grants",
		CtrLocalPushes:        "local_pushes",
		CtrMgrDirtyToPager:    "mgr_dirty_to_pager",
		CtrMgrFlushes:         "mgr_flushes",
		CtrMgrPageouts:        "mgr_pageouts",
		CtrMgrRequests:        "mgr_requests",
		CtrMgrUpgrades:        "mgr_upgrades",
		CtrMsgs:               "msgs",
		CtrNacks:              "nacks",
		CtrOwnershipLost:      "ownership_lost",
		CtrOwnershipReclaimed: "ownership_reclaimed",
		CtrOwnerXferAccepted:  "ownerxfer_accepted",
		CtrPageOfferAccepted:  "pageoffer_accepted",
		CtrPageOfferDeclined:  "pageoffer_declined",
		CtrPagesLost:          "pages_lost",
		CtrPeerDowns:          "peer_downs",
		CtrProtoTransitions:   "proto_transitions",
		CtrProxyEvicts:        "proxy_evicts",
		CtrProxyRequests:      "proxy_requests",
		CtrPullGrants:         "pull_grants",
		CtrPullRequests:       "pull_requests",
		CtrPullRetries:        "pull_retries",
		CtrPulls:              "pulls",
		CtrPushLocks:          "push_locks",
		CtrPushSupplies:       "push_supplies",
		CtrPushesCancelled:    "pushes_cancelled",
		CtrPushesInstalled:    "pushes_installed",
		CtrPushesStarted:      "pushes_started",
		CtrPushScanInflight:   "pushscan_inflight",
		CtrRangeLocks:         "range_locks",
		CtrRangeUnlocks:       "range_unlocks",
		CtrReadGrants:         "read_grants",
		CtrReqNacks:           "req_nacks",
		CtrRingScanHops:       "ring_scan_hops",
		CtrSelfUpgrades:       "self_upgrades",
		CtrShadowInterpose:    "shadow_interpose",
		CtrStaleGrants:        "stale_grants",
		CtrStaticMisses:       "static_misses",
		CtrStaticOwnerHits:    "static_owner_hits",
		CtrStaticPagedHits:    "static_paged_hits",
		CtrWriteGrants:        "write_grants",
		CtrZeroFills:          "zero_fills",
	}
	if len(golden) != int(NumCtrs) {
		t.Fatalf("golden table has %d entries, enum has %d", len(golden), NumCtrs)
	}
	for k, want := range golden {
		if got := k.String(); got != want {
			t.Errorf("Ctr(%d).String() = %q, want %q", uint8(k), got, want)
		}
		// Round trip: the string API must route the name back to the enum.
		c := NewCounters()
		c.V[k] = 1
		if c.Get(want) != 1 {
			t.Errorf("Get(%q) did not read V[%s]", want, want)
		}
	}
}
