package compiled

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/distrib"
	"repro/internal/intmat"
	"repro/internal/machine"
)

// Pricer caches compiled collective templates and serves mesh pricing
// by evaluating them at the requested payload. It holds two kinds:
//
//   - collective.MeshTemplates per selection structure — (mode, mesh
//     geometry, pattern, dims, force) — for macro-communications;
//   - collective.PermuteTemplates per mesh pattern — the affine map,
//     distribution, virtual grid, aggregation and force (see
//     patternKey) — for general plans, decomposed phases and
//     translations.
//
// Template compilation is byte-independent, so one template prices
// every payload (and every link-cost calibration of its geometry);
// evaluation is allocation-free. It is the only selection and pattern
// cache: the engine prices every scenario through it.
//
// A Pricer is safe for concurrent use; template compilation is
// single-flight per key. The nil *Pricer is valid and compiles a
// one-shot template per pricing (exactly the corresponding
// collective.Select* call), so callers can thread an optional pricer
// without guarding call sites.
type Pricer struct {
	mu   sync.Mutex
	tmpl map[string]*slot[*collective.MeshTemplate]
	pat  map[patternKey]*slot[*collective.PermuteTemplate]
	bld  map[string]*builderSlot

	hits, misses       atomic.Uint64
	patHits, patMisses atomic.Uint64
	evals              atomic.Uint64
}

// slot holds one cached template, compiled at most once.
type slot[T any] struct {
	once sync.Once
	t    T
}

// builderSlot serializes template compilation per mesh geometry: all
// templates of one geometry build through one shared
// collective.TemplateBuilder, so the expensive substructure (the
// machine-spanning total line every macro template competes against,
// the per-dimension line sets, the full-plane composition) compiles
// once per geometry instead of once per template.
type builderSlot struct {
	mu sync.Mutex
	b  *collective.TemplateBuilder
}

// NewPricer returns an empty template cache.
func NewPricer() *Pricer {
	return &Pricer{
		tmpl: map[string]*slot[*collective.MeshTemplate]{},
		pat:  map[patternKey]*slot[*collective.PermuteTemplate]{},
		bld:  map[string]*builderSlot{},
	}
}

// builder returns the geometry's shared template builder, creating it
// on first use. Templates are calibration-independent, so one builder
// serves every mesh instance of the geometry.
func (pr *Pricer) builder(m *machine.Mesh2D) *builderSlot {
	k := fmt.Sprintf("%dx%d", m.P, m.Q)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	bs, ok := pr.bld[k]
	if !ok {
		bs = &builderSlot{b: collective.NewTemplateBuilder(m)}
		pr.bld[k] = bs
	}
	return bs
}

// PricerStats snapshots the pricer's counters.
type PricerStats struct {
	// Templates is the number of compiled templates held.
	Templates int
	// TemplateHits/TemplateMisses count template-cache lookups; a miss
	// compiled a new template.
	TemplateHits, TemplateMisses uint64
	// Evals counts template evaluations (one per priced selection).
	Evals uint64
	// Patterns is the number of compiled pattern templates held;
	// PatternHits/PatternMisses count their lookups, one per priced
	// general plan, decomposed phase or translation. They are separate
	// from the selection-template counters above, which they leave
	// unchanged.
	Patterns                   int
	PatternHits, PatternMisses uint64
}

// Stats snapshots the counters (zero for a nil pricer).
func (pr *Pricer) Stats() PricerStats {
	if pr == nil {
		return PricerStats{}
	}
	pr.mu.Lock()
	n, np := len(pr.tmpl), len(pr.pat)
	pr.mu.Unlock()
	return PricerStats{
		Templates:      n,
		TemplateHits:   pr.hits.Load(),
		TemplateMisses: pr.misses.Load(),
		Evals:          pr.evals.Load(),
		Patterns:       np,
		PatternHits:    pr.patHits.Load(),
		PatternMisses:  pr.patMisses.Load(),
	}
}

// templateKey identifies one selection structure. Everything
// byte-independent that Select* reads is in the key; bytes and the
// link-cost calibration are evaluation inputs.
func templateKey(mode string, m *machine.Mesh2D, p collective.Pattern, dims []int, force string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%dx%d|%s|", mode, m.P, m.Q, p)
	for i, d := range dims {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte('|')
	b.WriteString(force)
	return b.String()
}

// lookup returns the template cached under k in tab, compiling it with
// build at most once concurrently, counts the lookup into hits or
// misses, and reports whether it was already cached.
func lookup[K comparable, T any](pr *Pricer, tab map[K]*slot[T], k K, hits, misses *atomic.Uint64, build func() T) (T, bool) {
	pr.mu.Lock()
	s, ok := tab[k]
	if !ok {
		s = &slot[T]{}
		tab[k] = s
	}
	pr.mu.Unlock()
	if ok {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
	s.once.Do(func() { s.t = build() })
	return s.t, ok
}

// eval prices one selection at the payload through the template
// cache: mode and dims name the selection structure, and compile
// builds its template on a miss through the geometry's shared
// builder. It reports the cache outcome — "hit", "miss", or "off" for
// the nil Pricer, which compiles a one-shot template instead.
func (pr *Pricer) eval(m *machine.Mesh2D, p collective.Pattern, mode string, dims []int, bytes int64, force string,
	compile func(*collective.TemplateBuilder) *collective.MeshTemplate) (collective.Choice, string) {
	if pr == nil {
		return compile(collective.NewTemplateBuilder(m)).Eval(m, bytes), "off"
	}
	t, hit := lookup(pr, pr.tmpl, templateKey(mode, m, p, dims, force), &pr.hits, &pr.misses, func() *collective.MeshTemplate {
		bs := pr.builder(m)
		bs.mu.Lock()
		defer bs.mu.Unlock()
		return compile(bs.b)
	})
	pr.evals.Add(1)
	if hit {
		return t.Eval(m, bytes), "hit"
	}
	return t.Eval(m, bytes), "miss"
}

// physMacroDims projects a macro's virtual grid axes onto the 2-D
// mesh: axes ≥ 2 have no physical extent in the mesh model and are
// dropped.
func physMacroDims(vdims []int) []int {
	var dims []int
	for _, d := range vdims {
		if d == 0 || d == 1 {
			dims = append(dims, d)
		}
	}
	return dims
}

// selectMacro selects for a macro-communication spanning the virtual
// grid axes vdims. Their projection onto the mesh's physical axes
// picks the scheduling: a one-axis (p=1) macro runs concurrent
// per-line trees along its axis; a multi-axis (p ≥ 2) macro with a
// physical axis runs per-plane (or per-line, if only one axis is
// physical) competing with the machine-spanning execution; anything
// else spans the machine.
func (pr *Pricer) selectMacro(m *machine.Mesh2D, p collective.Pattern, vdims []int, bytes int64, force string) (collective.Choice, string) {
	dims := physMacroDims(vdims)
	switch {
	case len(vdims) == 1 && len(dims) == 1:
		return pr.selectDim(m, p, dims[0], bytes, force)
	case len(vdims) >= 2 && len(dims) >= 1:
		return pr.selectPartial(m, p, dims, bytes, force)
	}
	return pr.selectTotal(m, p, bytes, force)
}

func (pr *Pricer) selectTotal(m *machine.Mesh2D, p collective.Pattern, bytes int64, force string) (collective.Choice, string) {
	return pr.eval(m, p, "total", nil, bytes, force, func(b *collective.TemplateBuilder) *collective.MeshTemplate {
		return b.Total(p, force)
	})
}

func (pr *Pricer) selectDim(m *machine.Mesh2D, p collective.Pattern, dim int, bytes int64, force string) (collective.Choice, string) {
	return pr.eval(m, p, "dim", []int{dim}, bytes, force, func(b *collective.TemplateBuilder) *collective.MeshTemplate {
		return b.Dim(p, dim, force)
	})
}

func (pr *Pricer) selectPartial(m *machine.Mesh2D, p collective.Pattern, dims []int, bytes int64, force string) (collective.Choice, string) {
	return pr.eval(m, p, "macro", dims, bytes, force, func(b *collective.TemplateBuilder) *collective.MeshTemplate {
		return b.Macro(p, dims, force)
	})
}

// SelectMesh is collective.SelectMesh(m, p, 0, bytes, force) through
// the template cache.
func (pr *Pricer) SelectMesh(m *machine.Mesh2D, p collective.Pattern, bytes int64, force string) collective.Choice {
	ch, _ := pr.selectTotal(m, p, bytes, force)
	return ch
}

// SelectMeshDim is collective.SelectMeshDim through the template
// cache.
func (pr *Pricer) SelectMeshDim(m *machine.Mesh2D, p collective.Pattern, dim int, bytes int64, force string) collective.Choice {
	ch, _ := pr.selectDim(m, p, dim, bytes, force)
	return ch
}

// SelectMeshMacro is collective.SelectMeshMacro through the template
// cache.
func (pr *Pricer) SelectMeshMacro(m *machine.Mesh2D, p collective.Pattern, dims []int, bytes int64, force string) collective.Choice {
	ch, _ := pr.selectPartial(m, p, dims, bytes, force)
	return ch
}

// patternKey identifies one mesh pattern's permute selection: the
// affine map (i, j) → T·(i, j)ᵗ + off on the n×n virtual grid, folded
// onto the P×Q mesh by dist, aggregated per physical processor pair
// (machine.AffineComm2D) or element-wise (machine.GeneralComm2D), and
// the force. Everything the pattern's contention structure depends on
// is in the key; the element size and the link-cost calibration are
// evaluation inputs.
type patternKey struct {
	p, q        int
	dist        distrib.Dist2D
	t           [4]int64
	off         [2]int64
	n           int
	elementwise bool
	force       string
}

// messages builds the keyed pattern at one byte per element, so each
// message's Bytes is its element multiplicity.
func (k patternKey) messages(m *machine.Mesh2D) []machine.Message {
	t := intmat.New(2, 2, k.t[0], k.t[1], k.t[2], k.t[3])
	build := machine.AffineComm2D
	if k.elementwise {
		build = machine.GeneralComm2D
	}
	return build(m, k.dist, t, k.off[:], k.n, k.n, 1)
}

// selectPattern prices the permute selection of the keyed pattern at
// elemBytes per element through the pattern cache, compiling its
// PermuteTemplate on a miss. The nil Pricer compiles a one-shot
// template instead.
func (pr *Pricer) selectPattern(m *machine.Mesh2D, k patternKey, elemBytes int64) collective.Choice {
	compile := func() *collective.PermuteTemplate {
		return collective.NewPermuteTemplate(m, k.messages(m), k.force)
	}
	if pr == nil {
		return compile().Eval(m, elemBytes)
	}
	t, _ := lookup(pr, pr.pat, k, &pr.patHits, &pr.patMisses, compile)
	return t.Eval(m, elemBytes)
}
