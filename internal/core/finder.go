package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lrcex/internal/faults"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/trace"
)

// NoTimeout disables a time limit when assigned to PerConflictTimeout or
// CumulativeTimeout. Any negative duration means "unlimited"; the zero value
// still selects the paper's default, so the two cases are distinguishable.
const NoTimeout time.Duration = -1

// Options configures the counterexample finder. The zero value selects the
// defaults the paper's implementation uses (Section 6).
type Options struct {
	// PerConflictTimeout bounds the unifying search per conflict
	// (default 5 s; NoTimeout — any negative value — disables the limit).
	PerConflictTimeout time.Duration
	// CumulativeTimeout bounds the total time spent across all conflicts of a
	// grammar; afterwards only nonunifying counterexamples are sought
	// (default 2 min; NoTimeout disables the limit). Under parallel search
	// the budget is a shared time-bank: every worker charges the bank for the
	// wall-clock time its conflicts consumed, so the paper's global limit is
	// respected regardless of how many searches run at once.
	CumulativeTimeout time.Duration
	// Parallelism is the number of conflicts FindAll searches concurrently
	// (default GOMAXPROCS; 1 forces the sequential path), hardest first, so
	// the long-pole conflict never lands on an otherwise-drained pool. Each
	// conflict's search itself is sequential. Results are always returned in
	// conflict order, and per-conflict outcomes are deterministic:
	// parallelism changes wall-clock, never answers — except where answers
	// depend on wall-clock itself (time limits and the shared cumulative
	// budget).
	Parallelism int
	// ExtendedSearch lifts the restriction of reverse transitions to states
	// on the shortest lookahead-sensitive path (the -extendedsearch flag).
	ExtendedSearch bool
	// MaxConfigs bounds the number of configurations expanded per conflict
	// (0 = unlimited); a memory safety valve absent from the paper. Unlike
	// the wall-clock limits this cap is deterministic: the same grammar and
	// options always expand the same configurations in the same order.
	MaxConfigs int
	// MaxArenaBytes bounds the search-owned memory of one conflict's
	// unifying search (0 = unlimited), measured by the same per-object
	// accounting SearchStats.AllocBytes reports. A search that would exceed
	// the budget aborts cleanly and degrades to the nonunifying
	// counterexample with kind "nonunifying (memory)" — the memory rung of
	// the degradation ladder, so a pathological grammar can never OOM the
	// process. Like MaxConfigs (and unlike the wall-clock limits) the budget
	// is deterministic: allocation totals are a pure function of the grammar
	// and options.
	MaxArenaBytes int64
	// Costs is the action cost model (zero value = DefaultCosts).
	Costs CostModel
}

func (o Options) withDefaults() Options {
	if o.PerConflictTimeout == 0 {
		o.PerConflictTimeout = 5 * time.Second
	}
	if o.CumulativeTimeout == 0 {
		o.CumulativeTimeout = 2 * time.Minute
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	o.Costs = o.Costs.withDefaults()
	return o
}

// ExampleKind classifies the outcome for one conflict.
type ExampleKind int

const (
	// Unifying: a single string with two distinct derivations was found; the
	// grammar is ambiguous.
	Unifying ExampleKind = iota
	// NonunifyingExhausted: the bounded unifying search space was exhausted
	// without success, so a nonunifying counterexample is reported. The
	// bounds are the search's own, not the grammar's: unless ExtendedSearch
	// is set, reverse transitions stay on the states of the shortest
	// lookahead-sensitive path, and every configuration is limited to
	// CostModel.MaxItemOccurrences occurrences of one state item (default 4).
	// So this proves only that no unifying counterexample exists within
	// those bounds — not that the conflict is unambiguous.
	NonunifyingExhausted
	// NonunifyingTimeout: the unifying search hit its time or configuration
	// limit; a nonunifying counterexample is reported instead.
	NonunifyingTimeout
	// NonunifyingSkipped: the cumulative budget was spent on earlier
	// conflicts, so only the nonunifying construction ran.
	NonunifyingSkipped
	// NonunifyingMemory: the unifying search would have exceeded
	// Options.MaxArenaBytes; it aborted cleanly and the nonunifying
	// counterexample is reported instead.
	NonunifyingMemory
	// NonunifyingRecovered: this conflict's search panicked (a search-core
	// bug or an injected fault); the panic was contained to the conflict and
	// the nonunifying construction re-ran on fresh memory. Example.Recovered
	// carries the typed panic.
	NonunifyingRecovered
)

func (k ExampleKind) String() string {
	switch k {
	case Unifying:
		return "unifying"
	case NonunifyingExhausted:
		return "nonunifying"
	case NonunifyingTimeout:
		return "nonunifying (timeout)"
	case NonunifyingSkipped:
		return "nonunifying (skipped)"
	case NonunifyingMemory:
		return "nonunifying (memory)"
	case NonunifyingRecovered:
		return "nonunifying (recovered)"
	default:
		return fmt.Sprintf("ExampleKind(%d)", int(k))
	}
}

// IsUnifying reports whether the outcome is a unifying counterexample.
func (k ExampleKind) IsUnifying() bool { return k == Unifying }

// Example is the counterexample found for one conflict.
type Example struct {
	Conflict lr.Conflict
	Kind     ExampleKind

	// Unifying outcome: Nonterminal is the ambiguous nonterminal, Syms the
	// counterexample string (a sentential form), Dot the conflict position
	// within it, and Deriv1/Deriv2 the two derivations (Deriv1 uses the
	// reduce item).
	Nonterminal grammar.Sym
	Syms        []grammar.Sym
	Dot         int
	Deriv1      *Deriv
	Deriv2      *Deriv

	// Nonunifying outcome: a shared prefix and the two continuations
	// (After1 follows the reduce item, After2 the other conflict item).
	Prefix []grammar.Sym
	After1 []grammar.Sym
	After2 []grammar.Sym

	// Merged marks a reduce/reduce conflict induced purely by LALR state
	// merging: no single prefix carries the conflict terminal into both
	// items' precise lookaheads, so the conflict is absent from the canonical
	// LR(1) construction. Prefix is then valid for the first reduction only;
	// the second reaches its reduction through a different merged context.
	Merged bool

	// Elapsed is the wall-clock time spent on this conflict's own work;
	// Expanded the number of configurations the unifying search expanded
	// (also available, with the rest of the search counters, in Stats). The
	// shortest lookahead-sensitive path search that a Finder runs once for
	// all its conflicts is in neither (see Finder.Stats).
	Elapsed  time.Duration
	Expanded int

	// Stats itemizes the search work done for this conflict: unifying-search
	// frontier traffic and allocation footprint plus the expansions of the
	// conflict's own breadth-first path searches (the other-side replay and
	// the joint reduce/reduce path).
	Stats SearchStats

	// Recovered is non-nil when Kind is NonunifyingRecovered: the typed
	// panic (conflict identity, panic value, stack) the degradation ladder
	// contained while producing this example.
	Recovered *ErrSearchPanic
}

// ErrSearchPanic is a panic raised inside one conflict's search, converted to
// a typed error by the finder's recovery rung. It identifies the conflict
// (state + conflict symbol), preserves the panic value, and carries the stack
// of the panicking goroutine. The finder degrades the affected conflict to
// the nonunifying construction and leaves every other conflict untouched;
// ErrSearchPanic only surfaces as a returned error when even the degraded
// retry panics.
type ErrSearchPanic struct {
	State int         // conflict state
	Sym   grammar.Sym // conflict symbol
	Value any         // the recovered panic value
	Stack []byte      // stack of the panicking goroutine
}

func (e *ErrSearchPanic) Error() string {
	return fmt.Sprintf("core: search panicked on conflict in state %d: %v", e.State, e.Value)
}

// DegradedCounts tallies the degradation-ladder outcomes of one Finder:
// searches that panicked and were recovered, and searches aborted at the
// memory budget. Safe snapshot via Finder.Degraded.
type DegradedCounts struct {
	Recovered    int64 // conflicts degraded after a contained panic
	MemoryAborts int64 // conflicts degraded at the MaxArenaBytes budget
}

// timeBank is the shared cumulative budget of Section 6 (the 2-minute limit),
// kept as remaining nanoseconds in an atomic counter so parallel workers can
// draw from one global pool without locking. A worker checks the bank before
// starting a conflict's unifying search and charges its conflict's elapsed
// wall-clock afterwards (the first to finish also pays for the Finder's
// shared path search); once the balance goes non-positive, remaining
// conflicts take the NonunifyingSkipped path. The bank may go negative by up
// to one per-conflict timeout per worker (the same overdraft the sequential
// implementation — and the paper's — allows for the conflict in flight when
// the budget expires).
type timeBank struct {
	remaining atomic.Int64
	unlimited bool
}

func newTimeBank(budget time.Duration) *timeBank {
	b := &timeBank{}
	if budget < 0 {
		b.unlimited = true
	} else {
		b.remaining.Store(int64(budget))
	}
	return b
}

// exhausted reports whether the cumulative budget has been spent.
func (b *timeBank) exhausted() bool { return !b.unlimited && b.remaining.Load() <= 0 }

// charge withdraws d from the bank.
func (b *timeBank) charge(d time.Duration) {
	if !b.unlimited {
		b.remaining.Add(-int64(d))
	}
}

// remainingNanos reports the bank's balance for trace attribution
// (math.MaxInt64 when unlimited).
func (b *timeBank) remainingNanos() int64 {
	if b.unlimited {
		return math.MaxInt64
	}
	return b.remaining.Load()
}

// scratch holds the per-worker reusable buffers of the search. All mutable
// per-conflict state lives either here or in values allocated inside one
// find call; everything reachable from Finder.g is immutable once NewFinder
// returns (see graph), which is what makes one Finder safe to share across
// goroutines.
type scratch struct {
	reach   []bool // reverse-reachability marks (joint reduce/reduce search)
	reach2  []bool // second reachability buffer (joint reduce/reduce search)
	allowed []bool // states on the shortest lookahead-sensitive path

	// busy is the recursion guard of expandStartingWith; the callee leaves it
	// empty on every return path, so it is allocated once per worker instead
	// of once per completion attempt.
	busy map[grammar.Sym]bool

	// Visited sets and BFS order buffers of the two per-conflict path
	// searches, reused across conflicts (cleared, not reallocated).
	osVisited map[osKey]bool
	osOrder   []osEntry
	jpVisited map[jpKey]bool
	jpOrder   []jpEntry

	// pathExpanded counts BFS expansions across the path searches of the
	// conflict in flight; find resets it per conflict and folds it into
	// Example.Stats.
	pathExpanded int64

	// mem is the unifying search's reusable memory: object arenas, frontier,
	// visited table. Nothing allocated from it survives a find call (winning
	// derivations are deep-copied), so it recycles wholesale per conflict.
	mem searchMem
}

// busySet returns the lazily allocated expansion recursion guard.
func (sc *scratch) busySet() map[grammar.Sym]bool {
	if sc.busy == nil {
		sc.busy = make(map[grammar.Sym]bool, 8)
	}
	return sc.busy
}

// allowedStates resets and fills the allowed-state buffer for one conflict.
func (sc *scratch) allowedStates(numStates int, states []int) []bool {
	if cap(sc.allowed) < numStates {
		sc.allowed = make([]bool, numStates)
	} else {
		sc.allowed = sc.allowed[:numStates]
		clear(sc.allowed)
	}
	for _, s := range states {
		sc.allowed[s] = true
	}
	return sc.allowed
}

// Finder finds counterexamples for the conflicts of one grammar. It builds
// the state-item lookup tables once (Section 6, "Data structures"), finds
// every conflict's shortest lookahead-sensitive path in one search, and keeps
// the cumulative time-bank across conflicts. A Finder is safe for concurrent
// use: the graph and automaton are immutable after construction, the path
// map is written once under a mutex and only read afterwards, and the bank is
// atomic.
type Finder struct {
	tbl  *lr.Table
	g    *graph
	opts Options
	bank *timeBank

	statsMu sync.Mutex
	stats   SearchStats

	// paths maps each table conflict's target to its shortest
	// lookahead-sensitive path (nil when no path reaches it); nil until
	// conflictPaths first succeeds. Guarded by pathsMu.
	pathsMu sync.Mutex
	paths   map[laspTarget]*laspPath
	// pathsDebt is the path search's wall-clock (nanoseconds) not yet
	// charged to the time bank; see chargeBank.
	pathsDebt atomic.Int64

	// Degradation-ladder tallies (atomic: workers update them concurrently).
	recovered    atomic.Int64
	memoryAborts atomic.Int64

	// scPool recycles scratch (and its arenas) across Find/FindContext
	// calls; FindAllContext workers hold a scratch each for their whole run
	// instead.
	scPool sync.Pool
}

// Degraded returns the degradation-ladder tallies across every conflict this
// Finder has processed. Safe for concurrent use.
func (f *Finder) Degraded() DegradedCounts {
	return DegradedCounts{
		Recovered:    f.recovered.Load(),
		MemoryAborts: f.memoryAborts.Load(),
	}
}

// Stats returns the running totals of search work across every conflict this
// Finder has processed (PeakFrontier is the max across conflicts, the other
// counters are sums). Safe for concurrent use.
func (f *Finder) Stats() SearchStats {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	return f.stats
}

// chargeBank withdraws a finished conflict's elapsed time from the time bank,
// plus, for the first conflict to finish, the shared path search's. Charging
// that search with the first conflict rather than ahead of it keeps the
// bank's contract: it is checked before each unifying search and charged
// after, so the first search is always admitted.
func (f *Finder) chargeBank(d time.Duration) {
	f.bank.charge(d + time.Duration(f.pathsDebt.Swap(0)))
}

// addStats folds one conflict's stats into the running totals.
func (f *Finder) addStats(s SearchStats) {
	f.statsMu.Lock()
	f.stats.Add(s)
	f.statsMu.Unlock()
}

// NewFinder returns a Finder over the table's automaton, compiling the
// search graph on the spot. Callers analyzing one grammar repeatedly should
// Compile once and use NewFinderFromCompiled.
func NewFinder(tbl *lr.Table, opts Options) *Finder {
	return NewFinderFromCompiled(Compile(tbl), opts)
}

// Table returns the parse table the finder analyzes.
func (f *Finder) Table() *lr.Table { return f.tbl }

// FindAll returns one counterexample per unresolved conflict, in conflict
// order.
func (f *Finder) FindAll() ([]*Example, error) {
	return f.FindAllContext(context.Background())
}

// FindAllContext is FindAll with cooperative cancellation: when ctx is
// cancelled, in-flight searches stop at their next poll point and the
// context's error is returned. Conflicts are distributed over
// Options.Parallelism workers; the returned slice is always in conflict
// order. On error, the examples for the conflicts preceding the first
// failure (in conflict order) are returned alongside it.
func (f *Finder) FindAllContext(ctx context.Context) ([]*Example, error) {
	conflicts := f.tbl.Conflicts
	if len(conflicts) > 0 {
		// Before any worker starts: the shared search runs (and is traced)
		// once, and the workers only read its result.
		if _, err := f.conflictPaths(ctx); err != nil {
			return nil, err
		}
	}
	workers := f.opts.Parallelism
	if workers > len(conflicts) {
		workers = len(conflicts)
	}

	if workers <= 1 {
		out := make([]*Example, 0, len(conflicts))
		sc := &scratch{}
		for i, c := range conflicts {
			ex, err := f.findTraced(ctx, c, i, sc)
			if err != nil {
				return out, conflictErr(f.tbl, c, err)
			}
			out = append(out, ex)
		}
		return out, nil
	}

	out := make([]*Example, len(conflicts))
	errs := make([]error, len(conflicts))
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Conflicts are claimed in longest-first order to cut makespan;
	// out/errs stay indexed by original conflict position.
	order := f.scheduleOrder(conflicts)

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &scratch{} // per-worker: never shared across goroutines
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				ex, err := f.findTraced(poolCtx, conflicts[i], i, sc)
				if err != nil {
					errs[i] = err
					cancel() // stop the remaining workers cooperatively
					return
				}
				out[i] = ex
			}
		}()
	}
	wg.Wait()

	// Report the first genuine failure in conflict order; cancellation
	// errors induced by our own pool shutdown (or by the caller) only
	// surface when no genuine error exists.
	var firstErr error
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			firstErr = conflictErr(f.tbl, conflicts[i], err)
			break
		}
	}
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		return out, nil
	}
	done := 0
	for done < len(out) && out[done] != nil {
		done++
	}
	return out[:done], firstErr
}

func conflictErr(tbl *lr.Table, c lr.Conflict, err error) error {
	return fmt.Errorf("conflict in state %d under %s: %w", c.State, tbl.A.G.Name(c.Sym), err)
}

// scheduleOrder returns conflict indices in the parallel path's claiming
// order: hardest first, so the long-pole conflict starts immediately instead
// of landing last on an otherwise-drained pool (the classic longest-
// processing-time makespan heuristic). Difficulty is seeded by the size of
// the conflict node's reverse-reachable set — the portion of the state-item
// graph the searches can touch, which tracks search effort and is a pure
// function of the grammar — so the order (ties broken by conflict index) is
// deterministic. Conflicts sharing a reduce-item node share the size, so one
// reverse search runs per distinct node. Results are always reported in
// conflict order regardless; scheduling order only affects wall-clock, plus
// which conflicts a mid-run cumulative-budget exhaustion skips — a boundary
// that is wall-clock-dependent under parallelism no matter the order.
func (f *Finder) scheduleOrder(conflicts []lr.Conflict) []int {
	order := make([]int, len(conflicts))
	size := make([]int, len(conflicts))
	sizeOf := make(map[node]int)
	var seen []bool
	for i, c := range conflicts {
		order[i] = i
		n, ok := f.g.lookup(c.State, c.Item1)
		if !ok {
			continue
		}
		sz, ok := sizeOf[n]
		if !ok {
			seen = f.g.reverseReachableInto(seen, n)
			for _, b := range seen {
				if b {
					sz++
				}
			}
			sizeOf[n] = sz
		}
		size[i] = sz
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	return order
}

// Find constructs a counterexample for one conflict.
func (f *Finder) Find(c lr.Conflict) (*Example, error) {
	return f.FindContext(context.Background(), c)
}

// FindContext is Find with cooperative cancellation. Concurrent FindContext
// calls on one Finder are safe and share the cumulative time-bank and the
// path search, which the first call runs for every conflict of the table.
func (f *Finder) FindContext(ctx context.Context, c lr.Conflict) (*Example, error) {
	if _, err := f.conflictPaths(ctx); err != nil {
		return nil, err
	}
	sc, _ := f.scPool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	defer f.scPool.Put(sc)
	return f.findTraced(ctx, c, f.conflictIndex(c), sc)
}

// fallbackConflictSeq offsets the span sequence number of a conflict not
// found in the table into a namespace genuine table indices can never reach
// (mirroring the 1_000_000 offset StartSeq applies), so a fallback sequence
// cannot collide with a real conflict index and mint a duplicate span ID.
const fallbackConflictSeq = 1_000_000

// conflictIndex locates c in the table's conflict list so single-conflict
// calls stamp the same span sequence number FindAll would; unknown conflicts
// key off their state, offset out of the table-index namespace.
func (f *Finder) conflictIndex(c lr.Conflict) int {
	for i, tc := range f.tbl.Conflicts {
		if tc.State == c.State && tc.Sym == c.Sym && tc.Item1 == c.Item1 && tc.Item2 == c.Item2 {
			return i
		}
	}
	return fallbackConflictSeq + c.State
}

// conflictPaths returns the shortest lookahead-sensitive path of every table
// conflict, keyed by target (nil for a target no path reaches). The first
// call runs one lookaheadSensitivePaths search over all the targets, in a
// "search.lasp" span, and memoizes the map; a cancelled search is not
// memoized, so the next call starts over. The search's pops are folded into
// Finder.Stats and its duration — the search.lasp span's own, from one
// trace.Timer — is charged to the time bank once, with the first conflict to
// finish (chargeBank); no Example carries either. A panic
// in the search is returned as an error: no one conflict owns the search, so
// the per-conflict degradation ladder cannot contain it.
func (f *Finder) conflictPaths(ctx context.Context) (_ map[laspTarget]*laspPath, err error) {
	f.pathsMu.Lock()
	defer f.pathsMu.Unlock()
	if f.paths != nil {
		return f.paths, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: shortest-path search panicked: %v", r)
		}
	}()
	_, lasp := trace.Time(ctx, "search.lasp")
	var targets []laspTarget
	for _, c := range f.tbl.Conflicts {
		if n, ok := f.g.lookup(c.State, c.Item1); ok {
			targets = append(targets, laspTarget{n, c.Sym})
		}
	}
	paths, expanded, err := lookaheadSensitivePaths(ctx, f.g, targets)
	span := lasp.Span()
	if err != nil {
		span.Set("error", err.Error())
		lasp.End()
		return nil, err
	}
	found := len(paths)
	for _, t := range targets {
		if _, ok := paths[t]; !ok {
			paths[t] = nil
		}
	}
	span.Set("targets", len(paths))
	span.Set("found", found)
	span.SetVolatile("path_expanded", expanded)
	f.addStats(SearchStats{PathExpanded: expanded})
	f.pathsDebt.Store(int64(lasp.End()))
	f.paths = paths
	return paths, nil
}

// pathTo returns the shortest lookahead-sensitive path to t: the memoized
// one for a table conflict or, for a conflict not in the table, a one-target
// run of the same search, whose pops count toward the conflict's own stats.
func (f *Finder) pathTo(ctx context.Context, sc *scratch, t laspTarget) (*laspPath, error) {
	paths, err := f.conflictPaths(ctx)
	if err != nil {
		return nil, err
	}
	p, ok := paths[t]
	if !ok {
		one, expanded, err := lookaheadSensitivePaths(ctx, f.g, []laspTarget{t})
		sc.pathExpanded += expanded
		if err != nil {
			return nil, err
		}
		p = one[t]
	}
	if p == nil {
		return nil, errUnreachableConflict
	}
	return p, nil
}

// findTraced wraps find in a "conflict.search" span. The sequence number is
// the conflict's position in the table — a pure function of the grammar — so
// the span tree is identical at every Parallelism setting. Conflict
// coordinates and outcome are deterministic attributes; search counters and
// the time-bank draw are volatile. The span's own duration is its wall-clock.
func (f *Finder) findTraced(ctx context.Context, c lr.Conflict, seq int, sc *scratch) (*Example, error) {
	ctx, span := trace.StartSeq(ctx, "conflict.search", seq)
	if span == nil {
		return f.find(ctx, c, sc)
	}
	span.Set("state", c.State)
	span.Set("symbol", f.tbl.A.G.Name(c.Sym))
	span.Set("conflict", c.Kind.String())
	before := f.bank.remainingNanos()
	ex, err := f.find(ctx, c, sc)
	if ex != nil {
		span.Set("outcome", ex.Kind.String())
		if ex.Merged {
			span.Set("merged", true)
		}
		span.SetVolatile("expanded", ex.Stats.Expanded)
		span.SetVolatile("pushed", ex.Stats.Pushed)
		span.SetVolatile("dedup_hits", ex.Stats.DedupHits)
		span.SetVolatile("peak_frontier", ex.Stats.PeakFrontier)
		span.SetVolatile("alloc_bytes", ex.Stats.AllocBytes)
		span.SetVolatile("path_expanded", ex.Stats.PathExpanded)
		span.SetVolatile("bank_draw_ms", float64(before-f.bank.remainingNanos())/float64(time.Millisecond))
	}
	if err != nil {
		span.Set("error", err.Error())
	}
	span.End()
	return ex, err
}

// find constructs a counterexample for one conflict, running the search
// under the panic-containment rung of the degradation ladder: the attempt
// runs under recover(), and a panic — a search-core bug or an injected
// fault — degrades this one conflict to the nonunifying construction on
// fresh memory (kind NonunifyingRecovered) while every other conflict
// proceeds untouched. Only a second panic, during the already-degraded
// retry, surfaces the typed *ErrSearchPanic as an error.
func (f *Finder) find(ctx context.Context, c lr.Conflict, sc *scratch) (*Example, error) {
	ex, err := f.findGuarded(ctx, c, sc)
	var sp *ErrSearchPanic
	if err == nil || !errors.As(err, &sp) {
		return ex, err
	}

	// The panic may have unwound mid-mutation: arenas, visited maps, and
	// BFS scratch are all suspect. Discard the worker's scratch wholesale;
	// the degraded retry (and every later conflict on this worker) starts
	// from fresh memory.
	f.recovered.Add(1)
	*sc = scratch{}

	rctx, span := trace.Start(ctx, "conflict.recover")
	if span != nil {
		span.Set("panic", fmt.Sprint(sp.Value))
		defer func() {
			if err != nil {
				span.Set("error", err.Error())
			}
			span.End()
		}()
	}
	ex, err = f.findDegraded(rctx, c, sc, sp)
	if err != nil {
		return nil, err
	}
	return ex, nil
}

// findGuarded is one search attempt with panics converted to *ErrSearchPanic.
func (f *Finder) findGuarded(ctx context.Context, c lr.Conflict, sc *scratch) (ex *Example, err error) {
	defer func() {
		if r := recover(); r != nil {
			ex = nil
			err = &ErrSearchPanic{State: c.State, Sym: c.Sym, Value: r, Stack: faults.Stack()}
		}
	}()
	return f.search(ctx, c, sc, true)
}

// findDegraded re-runs only the nonunifying construction after a contained
// panic. It too runs under recover(): if even the degraded path panics the
// original typed error is returned and the caller decides (for FindAll that
// aborts the batch — the grammar, not one conflict, is then suspect).
func (f *Finder) findDegraded(ctx context.Context, c lr.Conflict, sc *scratch, sp *ErrSearchPanic) (ex *Example, err error) {
	defer func() {
		if r := recover(); r != nil {
			ex, err = nil, sp
		}
	}()
	ex, err = f.search(ctx, c, sc, false)
	if err != nil {
		return nil, err
	}
	ex.Kind = NonunifyingRecovered
	ex.Recovered = sp
	return ex, nil
}

// search constructs a counterexample for one conflict: first its shortest
// lookahead-sensitive path (Section 4, looked up in the Finder's shared path
// map), then — within the time budget, when
// runUnify allows — the unifying search (Section 5), falling back to the
// nonunifying counterexample assembled from the path. All searches poll ctx;
// the per-conflict time limit is a deadline context derived from it.
// runUnify=false is the degraded mode of the recovery ladder: only the path
// searches and the nonunifying construction run (the caller stamps the kind).
func (f *Finder) search(ctx context.Context, c lr.Conflict, sc *scratch, runUnify bool) (*Example, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	a := f.tbl.A
	sc.pathExpanded = 0

	conflictNode, ok := f.g.lookup(c.State, c.Item1)
	if !ok {
		return nil, fmt.Errorf("core: conflict reduce item not in state %d", c.State)
	}
	path, err := f.pathTo(ctx, sc, laspTarget{conflictNode, c.Sym})
	if err != nil {
		return nil, err
	}

	ex := &Example{Conflict: c}

	if runUnify && !f.bank.exhausted() {
		var allowed []bool
		if !f.opts.ExtendedSearch {
			allowed = sc.allowedStates(len(a.States), path.states(f.g))
		}
		searchCtx := ctx
		if f.opts.PerConflictTimeout >= 0 {
			var cancel context.CancelFunc
			searchCtx, cancel = context.WithDeadline(ctx, start.Add(f.opts.PerConflictTimeout))
			defer cancel()
		}
		search := newUnifySearch(f.g, c, f.opts.Costs, allowed, f.opts.MaxConfigs, f.opts.MaxArenaBytes, &sc.mem)
		res := search.run(searchCtx)
		ex.Expanded = search.Expanded
		ex.Stats = search.stats()
		if search.Cancelled {
			if err := ctx.Err(); err != nil {
				return nil, err // the caller cancelled, not the per-conflict deadline
			}
		}
		if res != nil {
			ex.Kind = Unifying
			ex.Nonterminal = res.nonterminal
			ex.Syms = res.deriv1.Yield(nil)
			ex.Dot = res.dot
			ex.Deriv1 = res.deriv1
			ex.Deriv2 = res.deriv2
			ex.Elapsed = time.Since(start)
			ex.Stats.PathExpanded = sc.pathExpanded
			f.chargeBank(ex.Elapsed)
			f.addStats(ex.Stats)
			return ex, nil
		}
		switch {
		case search.MemCapped:
			// The memory rung: the search would have exceeded the arena
			// budget; degrade to the nonunifying construction below.
			f.memoryAborts.Add(1)
			ex.Kind = NonunifyingMemory
		case search.Cancelled || search.Capped:
			ex.Kind = NonunifyingTimeout
		default:
			ex.Kind = NonunifyingExhausted
		}
	} else {
		ex.Kind = NonunifyingSkipped
	}

	nu, err := buildNonunifying(ctx, f.g, c, path, sc)
	if err != nil {
		return nil, err
	}
	ex.Prefix = nu.prefix
	ex.After1 = nu.after1
	ex.After2 = nu.after2
	ex.Merged = nu.merged
	ex.Elapsed = time.Since(start)
	ex.Stats.PathExpanded = sc.pathExpanded
	f.chargeBank(ex.Elapsed)
	f.addStats(ex.Stats)
	return ex, nil
}
