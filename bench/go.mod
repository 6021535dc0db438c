module sigfile/bench

go 1.22

require sigfile v0.0.0

replace sigfile => ../
