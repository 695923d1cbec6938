package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// MetricName enforces the project's Prometheus naming scheme at obs
// registration sites:
//
//   - names are literal (constant) strings — a computed name defeats
//     grep, dashboards and this analyzer alike; variance belongs in
//     labels;
//   - names match adsala_[a-z0-9_]+;
//   - counters end in _total, gauges do not, histograms end in a unit
//     suffix (_seconds, _bytes, _size or _count);
//   - one package registering the same name as two different metric
//     types, or at several sites without labels to tell the series
//     apart, is reported at vet time instead of panicking at serve time.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "obs registrations use literal adsala_* names with conventional suffixes and no conflicting duplicates",
	Run:  runMetricName,
}

var metricNameRe = regexp.MustCompile(`^adsala_[a-z0-9_]+$`)

// obsRegMethods maps obs.Registry method names to the index of the first
// variadic label argument and the Prometheus type they register.
var obsRegMethods = map[string]struct {
	labelStart int
	promType   string
}{
	"CounterFunc":       {3, "counter"},
	"GaugeFunc":         {3, "gauge"},
	"RegisterHistogram": {3, "histogram"},
}

// histogramUnits are the accepted histogram name suffixes.
var histogramUnits = []string{"_seconds", "_bytes", "_size", "_count"}

// regSite is one registration call site.
type regSite struct {
	pos       token.Pos
	promType  string
	hasLabels bool
}

func runMetricName(pass *Pass) error {
	obsPath := pass.Module.Path + "/internal/obs"
	if pass.Pkg.Path() == obsPath {
		return nil // the obs package itself registers nothing
	}
	sites := make(map[string][]regSite)
	var order []string
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
				return true
			}
			reg, ok := obsRegMethods[fn.Name()]
			if !ok || !isRegistryMethod(fn) || len(call.Args) == 0 {
				return true
			}
			name, isConst := constString(pass.Info, call.Args[0])
			if !isConst {
				pass.Reportf(call.Args[0].Pos(),
					"metric name passed to obs.Registry.%s must be a literal string — put variance in labels", fn.Name())
				return true
			}
			checkMetricName(pass, call.Args[0].Pos(), fn.Name(), reg.promType, name)
			if _, seen := sites[name]; !seen {
				order = append(order, name)
			}
			sites[name] = append(sites[name], regSite{
				pos:       call.Pos(),
				promType:  reg.promType,
				hasLabels: len(call.Args) > reg.labelStart,
			})
			return true
		})
	}

	for _, name := range order {
		ss := sites[name]
		if len(ss) < 2 {
			continue
		}
		first := ss[0]
		conflict := false
		for _, s := range ss[1:] {
			if s.promType != first.promType {
				conflict = true
				p := pass.Fset.Position(first.pos)
				pass.Reportf(s.pos,
					"metric %q already registered as a %s at %s:%d — registering it as a %s panics at runtime",
					name, first.promType, p.Filename, p.Line, s.promType)
			}
		}
		if conflict {
			continue // the duplicate-site message would just repeat the conflict
		}
		unlabelled := 0
		for _, s := range ss {
			if !s.hasLabels {
				unlabelled++
			}
		}
		if unlabelled > 0 {
			p := pass.Fset.Position(first.pos)
			for _, s := range ss[1:] {
				pass.Reportf(s.pos,
					"metric %q registered at multiple sites (first at %s:%d) without labels distinguishing the series — merge the sites or add labels",
					name, p.Filename, p.Line)
			}
		}
	}
	return nil
}

// isRegistryMethod reports whether fn is a method on obs.Registry.
func isRegistryMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// checkMetricName validates one literal name against the scheme.
func checkMetricName(pass *Pass, pos token.Pos, method, promType, name string) {
	if !metricNameRe.MatchString(name) || strings.HasSuffix(name, "_") || strings.Contains(name, "__") {
		pass.Reportf(pos, "metric name %q does not match the project scheme adsala_[a-z0-9_]+", name)
		return
	}
	switch promType {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "counter %q must end in _total (Prometheus counter convention)", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "gauge %q must not end in _total — that suffix is reserved for counters", name)
		}
	case "histogram":
		ok := false
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				ok = true
				break
			}
		}
		if !ok {
			pass.Reportf(pos, "histogram %q must end in a unit suffix (%s)", name, strings.Join(histogramUnits, ", "))
		}
	}
}

// constString evaluates e as a constant string.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
