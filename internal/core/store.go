package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/ml"
	"repro/internal/ops"
	"repro/internal/preprocess"
)

// The on-disk artefact written at installation time. Format v2 is a per-op
// bundle keyed by wire name; v1 (written before the operation registry) is a
// single GEMM model at the top level and still loads, as a {gemm: model}
// bundle, so artefacts trained before this redesign keep predicting
// identically.

// opModelFile is one serialized per-op model of a v2 artefact.
type opModelFile struct {
	ModelKind   string          `json:"model_kind"`
	Columns     []string        `json:"columns,omitempty"`
	EvalSeconds float64         `json:"eval_seconds"`
	Pipeline    json.RawMessage `json:"pipeline"`
	Model       json.RawMessage `json:"model"`
}

// libraryFileV2 is the v2 artefact layout.
type libraryFileV2 struct {
	FormatVersion int                    `json:"format_version"`
	Platform      string                 `json:"platform"`
	Candidates    []int                  `json:"candidates"`
	Ops           map[string]opModelFile `json:"ops"`
}

// libraryFileV1 is the legacy single-model layout.
type libraryFileV1 struct {
	FormatVersion int             `json:"format_version"`
	Platform      string          `json:"platform"`
	ModelKind     string          `json:"model_kind"`
	Columns       []string        `json:"columns,omitempty"`
	Candidates    []int           `json:"candidates"`
	EvalSeconds   float64         `json:"eval_seconds"`
	Pipeline      json.RawMessage `json:"pipeline"`
	Model         json.RawMessage `json:"model"`
}

const (
	formatVersionV1 = 1
	formatVersion   = 2
)

// Save writes the library artefact to path in the v2 per-op format.
func (l *Library) Save(path string) error {
	f := libraryFileV2{
		FormatVersion: formatVersion,
		Platform:      l.Platform,
		Candidates:    l.Candidates,
		Ops:           make(map[string]opModelFile, len(l.plans)),
	}
	for _, op := range l.TrainedOps() {
		m := l.ModelFor(op)
		pipe, err := m.Pipeline.Marshal()
		if err != nil {
			return fmt.Errorf("core: save %v pipeline: %w", op, err)
		}
		model, err := ml.Marshal(m.Kind, m.Model)
		if err != nil {
			return fmt.Errorf("core: save %v model: %w", op, err)
		}
		f.Ops[op.String()] = opModelFile{
			ModelKind:   m.Kind,
			Columns:     m.Columns,
			EvalSeconds: m.EvalSeconds,
			Pipeline:    pipe,
			Model:       model,
		}
	}
	if len(f.Ops) == 0 {
		return fmt.Errorf("core: library has no trained models to save")
	}
	blob, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("core: encode library: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("core: write library: %w", err)
	}
	return nil
}

// unmarshalOpModel decodes one serialized model bundle entry.
func unmarshalOpModel(f opModelFile) (*OpModel, error) {
	pipe, err := preprocess.UnmarshalPipeline(f.Pipeline)
	if err != nil {
		return nil, err
	}
	model, err := ml.Unmarshal(f.Model)
	if err != nil {
		return nil, err
	}
	return &OpModel{
		Kind:        f.ModelKind,
		Model:       model,
		Pipeline:    pipe,
		Columns:     f.Columns,
		EvalSeconds: f.EvalSeconds,
	}, nil
}

// Load restores a library artefact written by Save — either format version.
func Load(path string) (*Library, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read library: %w", err)
	}
	var probe struct {
		FormatVersion int `json:"format_version"`
	}
	if err := json.Unmarshal(blob, &probe); err != nil {
		return nil, fmt.Errorf("core: decode library %s: %w", path, err)
	}
	switch probe.FormatVersion {
	case formatVersionV1:
		return loadV1(path, blob)
	case formatVersion:
		return loadV2(path, blob)
	}
	return nil, fmt.Errorf("core: library %s has format %d, want %d (or legacy %d)",
		path, probe.FormatVersion, formatVersion, formatVersionV1)
}

// loadV1 restores a legacy single-model artefact as a {gemm: model} bundle.
func loadV1(path string, blob []byte) (*Library, error) {
	var f libraryFileV1
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("core: decode library %s: %w", path, err)
	}
	if len(f.Candidates) == 0 {
		return nil, fmt.Errorf("core: library %s has no candidate thread counts", path)
	}
	m, err := unmarshalOpModel(opModelFile{
		ModelKind:   f.ModelKind,
		Columns:     f.Columns,
		EvalSeconds: f.EvalSeconds,
		Pipeline:    f.Pipeline,
		Model:       f.Model,
	})
	if err != nil {
		return nil, fmt.Errorf("core: library %s op %v: %w", path, ops.GEMM, err)
	}
	lib := &Library{Platform: f.Platform, Candidates: sortedCopy(f.Candidates), format: formatVersionV1}
	if err := lib.SetModel(ops.GEMM, m); err != nil {
		return nil, fmt.Errorf("core: library %s: %w", path, err)
	}
	return lib, nil
}

// loadV2 restores a per-op bundle artefact.
func loadV2(path string, blob []byte) (*Library, error) {
	var f libraryFileV2
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("core: decode library %s: %w", path, err)
	}
	if len(f.Candidates) == 0 {
		return nil, fmt.Errorf("core: library %s has no candidate thread counts", path)
	}
	if len(f.Ops) == 0 {
		return nil, fmt.Errorf("core: library %s has no trained models", path)
	}
	lib := &Library{Platform: f.Platform, Candidates: sortedCopy(f.Candidates), format: formatVersion}
	for name, mf := range f.Ops {
		op, err := ops.Parse(name)
		if err != nil {
			// Forward compatibility: an artefact written by a newer build may
			// bundle models for ops this build's registry does not know.
			// Serving already degrades per design — ops without a model fall
			// back to GEMM — so skip the unknown entry instead of rejecting
			// the whole artefact.
			continue
		}
		m, err := unmarshalOpModel(mf)
		if err != nil {
			return nil, fmt.Errorf("core: library %s op %s: %w", path, name, err)
		}
		if err := lib.SetModel(op, m); err != nil {
			return nil, fmt.Errorf("core: library %s: %w", path, err)
		}
	}
	if !lib.HasModel(ops.GEMM) {
		return nil, fmt.Errorf("core: library %s lacks the primary gemm model", path)
	}
	return lib, nil
}
