module timber/benchmark

go 1.22

require timber v0.0.0

replace timber => ../
