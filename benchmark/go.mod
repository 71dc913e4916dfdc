module dataaudit/benchmark

go 1.23

require dataaudit v0.0.0

replace dataaudit => ../
