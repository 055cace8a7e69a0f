module github.com/bgpstream-go/bgpstream/bench

go 1.24

require github.com/bgpstream-go/bgpstream v0.0.0

replace github.com/bgpstream-go/bgpstream => ../
