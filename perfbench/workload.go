package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// docSpec is one generated catalog document.
type docSpec struct {
	name  string
	scale int
	seed  int64
}

// read is one query request: a query against a catalog document.
type read struct{ doc, query string }

// workload is one named traffic mix. Everything the server sees derives
// from the seed: the documents, the read order and the write targets.
type workload struct {
	name string
	docs []docSpec
	// mix is the read order; request i sends mix[i%len(mix)].
	mix []read
	// openQPS is the fixed offered rate of the open-loop read phase.
	openQPS float64
	// writes is the fixed count of visibility-acked writes (write_mix);
	// the workload then serves its document with a WAL.
	writes  int
	targets []int // open_auction positions (1-based), one per insert/delete pair
	// slack[q] is how far above its reference count a read of q may be
	// while writes are outstanding.
	slack map[string]int
	// ledger is the read whose per-layer times the traced run sums.
	ledger read
	// setups and restarts are how many times a run opens the catalog
	// before and after the load; the reported times are their medians.
	setups, restarts int
	seconds          int
}

// The workloads' fixed parameters. The open-loop rates are fixed and sit
// well below what two back-to-back clients reach on a 2-vCPU host (a third
// on query_large, a thirtieth on query_small), leaving headroom for the
// load generator, which shares those CPUs, and for slow stretches of a
// shared host.
const (
	largeScale, smallScale, writeScale = 1000, 10, 200
	smallDocs                          = 8
	largeQPS, smallQPS, writeReadQPS   = 20, 250, 50
	writesPerSecond                    = 150 // write_mix issues this many writes per --seconds
	warmWrites                         = 32
	warmFor                            = 2 * time.Second
	slices                             = 10 // open-loop/back-to-back alternations of a query workload's run
)

const auctionPath = "/site/open_auctions/open_auction"

func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name, seconds: seconds, setups: 3, restarts: 3}
	switch name {
	case "query_large":
		w.docs = []docSpec{{"xmark", largeScale, rng.Int63()}}
		w.mix = order(rng, pairs(w.docs, "/site//item/name", "//person/name", "//listitem/text",
			auctionPath+"/bidder/increase"))
		w.openQPS = largeQPS
		w.setups, w.restarts = 3, 1
		w.ledger = read{"xmark", "/site//item/name"}
	case "query_small":
		for i := 0; i < smallDocs; i++ {
			w.docs = append(w.docs, docSpec{fmt.Sprintf("cat%d", i), smallScale, rng.Int63()})
		}
		w.mix = order(rng, pairs(w.docs,
			"/site/regions/africa/item/name", "/site/people/person/profile/interest", // join
			"//open_auction[bidder]/itemref", "//person[profile]/emailaddress", // twig
			"/site/people/person[3]/name")) // nav
		w.openQPS = smallQPS
		w.setups, w.restarts = 7, 30
		w.ledger = read{"cat0", "/site/regions/africa/item/name"}
	case "write_mix":
		w.docs = []docSpec{{"auctions", writeScale, rng.Int63()}}
		w.mix = order(rng, pairs(w.docs, auctionPath+"/bidder/increase", "//open_auction[bidder]/itemref"))
		w.openQPS = writeReadQPS
		w.setups, w.restarts = 5, 7
		w.writes = writesPerSecond * seconds
		w.targets = rng.Perm(6 * writeScale) // XMark has 6 open auctions per scale unit
		for i := range w.targets {
			w.targets[i]++
		}
		// One insert may be outstanding; every auction keeps ≥1 bidder, so
		// the twig count never moves.
		w.slack = map[string]int{auctionPath + "/bidder/increase": 1}
		w.ledger = read{"auctions", auctionPath + "/bidder/increase"}
	default:
		return nil, fmt.Errorf("unknown workload %q (query_large, query_small, write_mix)", name)
	}
	return w, nil
}

func pairs(docs []docSpec, queries ...string) []read {
	var out []read
	for _, d := range docs {
		for _, q := range queries {
			out = append(out, read{d.name, q})
		}
	}
	return out
}

// order repeats seeded permutations of reads, so every read appears equally
// often and in a seed-dependent order.
func order(rng *rand.Rand, reads []read) []read {
	const blocks = 64
	out := make([]read, 0, blocks*len(reads))
	for b := 0; b < blocks; b++ {
		for _, i := range rng.Perm(len(reads)) {
			out = append(out, reads[i])
		}
	}
	return out
}

// writeOp is write number j: even j inserts a bidder at position 1 of an
// open auction, odd j deletes it again, round-robin over the seeded targets.
func (w *workload) writeOp(j int) (path string, pos int, xml string) {
	path = fmt.Sprintf("%s[%d]", auctionPath, w.targets[(j/2)%len(w.targets)])
	if j%2 == 1 {
		return path, 1, ""
	}
	return path, 1, fmt.Sprintf("<bidder><increase>%d.25</increase></bidder>", j%97)
}

// genDoc is a generated document with its reference answers.
type genDoc struct {
	spec  docSpec
	src   string
	nodes int            // non-attribute nodes from the root element down
	refs  map[string]int // query → count from the reference evaluator
}

// generate builds every catalog document and evaluates each of its queries
// with the pointer-navigator evaluator on the generated tree.
func (w *workload) generate() ([]genDoc, error) {
	t0 := time.Now()
	out := make([]genDoc, 0, len(w.docs))
	for _, spec := range w.docs {
		tree := xmltree.XMark(spec.scale, spec.seed)
		g := genDoc{spec: spec, src: xmltree.Serialize(tree), refs: map[string]int{}}
		tree.DocumentElement().Walk(func(*xmltree.Node) bool { g.nodes++; return true })
		eng := xpath.NewEngine(tree, xpath.PointerNavigator{})
		for _, r := range w.mix {
			if r.doc != spec.name || g.refs[r.query] != 0 {
				continue
			}
			res, err := eng.Query(r.query)
			if err != nil {
				return nil, fmt.Errorf("reference %s on %s: %w", r.query, spec.name, err)
			}
			g.refs[r.query] = len(res)
		}
		out = append(out, g)
	}
	logf("generated %d docs in %v", len(out), time.Since(t0).Round(time.Millisecond))
	return out, nil
}

// answerOK reports whether count is a correct answer to r.
func (w *workload) answerOK(docs []genDoc, r read, count int) bool {
	for _, g := range docs {
		if g.spec.name == r.doc {
			ref := g.refs[r.query]
			return count >= ref && count <= ref+w.slack[r.query]
		}
	}
	return false
}
