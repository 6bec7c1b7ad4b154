module rpivideo/bench

go 1.22

require rpivideo v0.0.0

replace rpivideo => ../
