package main

import (
	"reflect"
	"strings"
)

// counters calls tier's Stats method and flattens whatever it returns into
// dotted counter names: numeric fields by name, nested and embedded structs
// and string-keyed maps by path (a GuardStats gives "Shed" and
// "PoolStats.Led"). Reading by reflection keeps the benchmark compiling when
// the tiers' stats types are renamed, merged or nested differently; a
// counter that disappears is reported as absent, not as a build failure. A
// tier without a usable Stats method yields an empty map.
func counters(tier any) map[string]float64 {
	out := map[string]float64{}
	v := reflect.ValueOf(tier)
	if !v.IsValid() || (v.Kind() == reflect.Pointer && v.IsNil()) {
		return out
	}
	m := v.MethodByName("Stats")
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() == 0 {
		return out
	}
	flatten("", m.Call(nil)[0], out)
	return out
}

func flatten(prefix string, v reflect.Value, out map[string]float64) {
	join := func(name string) string {
		if prefix == "" {
			return name
		}
		return prefix + "." + name
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			flatten(prefix, v.Elem(), out)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				flatten(join(f.Name), v.Field(i), out)
			}
		}
	case reflect.Map:
		if v.Type().Key().Kind() == reflect.String {
			for _, k := range v.MapKeys() {
				flatten(join(k.String()), v.MapIndex(k), out)
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[prefix] = float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		out[prefix] = float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		out[prefix] = v.Float()
	}
}

// counter returns the counter whose dotted name is name or ends in
// "."+name, preferring the shortest such path. ok is false when there is
// none.
func counter(c map[string]float64, name string) (v float64, ok bool) {
	best := ""
	for k := range c {
		if k != name && !strings.HasSuffix(k, "."+name) {
			continue
		}
		if !ok || len(k) < len(best) || (len(k) == len(best) && k < best) {
			best, ok = k, true
		}
	}
	return c[best], ok
}

// snapshot reads the counters of several named tiers into one map, each
// tier's counters under its name ("cache.Hits", "pool.Led").
func snapshot(tiers map[string]any) map[string]float64 {
	out := map[string]float64{}
	for name, t := range tiers {
		for k, v := range counters(t) {
			out[name+"."+k] = v
		}
	}
	return out
}

// delta returns how much the named counter grew from before to after.
func delta(before, after map[string]float64, name string) (float64, bool) {
	a, ok := counter(after, name)
	if !ok {
		return 0, false
	}
	b, _ := counter(before, name)
	return a - b, true
}
