package compiled

import (
	"errors"

	"repro/internal/core"
	"repro/internal/intmat"
)

// PlanShapeRec is the serializable form of one PlanShape: the one
// plan-shape layout, shared by stored artifacts and the engine's plan
// records (which embed it), so both tiers encode and decode a shape
// the same way.
type PlanShapeRec struct {
	Class          int  `json:"class"`
	Vectorizable   bool `json:"vec,omitempty"`
	MacroReduction bool `json:"red,omitempty"`
	// MacroDims is PlanShape.MacroDims (store layout v3; v2 recorded a
	// single MacroDim).
	MacroDims []int        `json:"mdims,omitempty"`
	Factors   []intmat.Rec `json:"factors,omitempty"`
	Dataflow  *intmat.Rec  `json:"dataflow,omitempty"`
}

// Rec serializes the plan shape.
func (p PlanShape) Rec() PlanShapeRec {
	r := PlanShapeRec{
		Class:          int(p.Class),
		Vectorizable:   p.Vectorizable,
		MacroReduction: p.MacroReduction,
		MacroDims:      p.MacroDims,
	}
	for _, f := range p.Factors {
		r.Factors = append(r.Factors, f.Rec())
	}
	if p.Dataflow != nil {
		dr := p.Dataflow.Rec()
		r.Dataflow = &dr
	}
	return r
}

var errBadShape = errors.New("compiled: plan record has an invalid class")

// Shape rebuilds the plan shape, rejecting records that do not decode
// to valid matrices or classes.
func (r PlanShapeRec) Shape() (PlanShape, error) {
	if r.Class < int(core.Local) || r.Class > int(core.General) {
		return PlanShape{}, errBadShape
	}
	p := PlanShape{
		Class:          core.Class(r.Class),
		Vectorizable:   r.Vectorizable,
		MacroReduction: r.MacroReduction,
		MacroDims:      r.MacroDims,
	}
	for _, fr := range r.Factors {
		f, err := intmat.FromRec(fr)
		if err != nil {
			return PlanShape{}, err
		}
		p.Factors = append(p.Factors, f)
	}
	if r.Dataflow != nil {
		t, err := intmat.FromRec(*r.Dataflow)
		if err != nil {
			return PlanShape{}, err
		}
		p.Dataflow = t
	}
	return p, nil
}

// ArtifactRec is the serializable form of an Artifact — the unit the
// disk store's compiled tier persists.
type ArtifactRec struct {
	Key   string         `json:"key"`
	Err   string         `json:"err,omitempty"`
	Plans []PlanShapeRec `json:"plans,omitempty"`
}

// Rec serializes the artifact.
func (a *Artifact) Rec() ArtifactRec {
	rec := ArtifactRec{Key: a.Key, Err: a.Err}
	for _, p := range a.Plans {
		rec.Plans = append(rec.Plans, p.Rec())
	}
	return rec
}

// FromRec rebuilds an artifact from its stored form, rejecting
// records that do not decode to valid matrices or classes (callers
// treat an error as a store miss and recompile).
func FromRec(rec ArtifactRec) (*Artifact, error) {
	a := &Artifact{Key: rec.Key, Err: rec.Err, Plans: make([]PlanShape, 0, len(rec.Plans))}
	for _, pr := range rec.Plans {
		p, err := pr.Shape()
		if err != nil {
			return nil, err
		}
		a.Plans = append(a.Plans, p)
	}
	return a, nil
}
