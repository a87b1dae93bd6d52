package engine

import "vitdyn/internal/graph"

// PlanVector prices p positionally on the engine's backend, past every
// memo: the cost vector a LayerAdditive backend's plan candidates get.
func (e *Engine) PlanVector(p *graph.Plan) ([]float64, error) { return e.positional(p) }
