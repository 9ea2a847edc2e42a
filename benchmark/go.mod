module netdebug/benchmark

go 1.23

require netdebug v0.0.0

replace netdebug => ../
