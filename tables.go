package booters

import (
	"booters/internal/core"
	"booters/internal/dataset"
)

// CountrySharesAt computes each country's percentage share of globally
// observed attacks during the calendar month (year, month) — one column of
// the paper's Table 3. Because attacks can be attributed to more than one
// country, the shares may sum above 100%.
func CountrySharesAt(p *dataset.Panel, year, month int) map[string]float64 {
	return core.CountrySharesAt(p, year, month)
}

// Table3Years are the February snapshots the paper tabulates.
var Table3Years = core.Table3Years

// Table3 computes the full share table: country -> year -> percent share,
// for the eight Table 3 countries, using each year's February.
func Table3(p *dataset.Panel) map[string]map[int]float64 { return core.Table3(p) }
