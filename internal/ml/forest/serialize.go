package forest

import (
	"fmt"

	"repro/internal/ml/tree"
)

// Dump is the serialized form of a trained forest classifier.
type Dump struct {
	Trees      []*tree.Dump
	NumClasses int
	Config     Config
}

// EncodeDump flattens the trained classifier into its serializable form.
// Workers is an execution knob, not part of the model: it is zeroed so the
// blob is byte-identical whatever parallelism trained the forest.
func (f *Classifier) EncodeDump() (*Dump, error) {
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("forest: dumping an untrained classifier")
	}
	cfg := f.cfg
	cfg.Workers = 0
	d := &Dump{NumClasses: f.numClasses, Config: cfg}
	for _, t := range f.trees {
		d.Trees = append(d.Trees, t.Encode())
	}
	return d, nil
}

// FromDump rebuilds a classifier from its serialized form.
func FromDump(d *Dump) (*Classifier, error) {
	if len(d.Trees) == 0 {
		return nil, fmt.Errorf("forest: model has no trees")
	}
	if d.NumClasses < 2 {
		return nil, fmt.Errorf("forest: bad class count %d", d.NumClasses)
	}
	f := &Classifier{cfg: d.Config, numClasses: d.NumClasses}
	for i, td := range d.Trees {
		if td == nil {
			return nil, fmt.Errorf("forest: tree %d: missing dump", i)
		}
		// Every tree must vote with the forest's class count, or soft
		// voting would index past a shorter proba vector.
		if td.NumClasses != d.NumClasses {
			return nil, fmt.Errorf("forest: tree %d has %d classes, forest has %d", i, td.NumClasses, d.NumClasses)
		}
		t, err := tree.Decode(td)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}
