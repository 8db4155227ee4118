module response/bench

go 1.24

require response v0.0.0

replace response => ../
