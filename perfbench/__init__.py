"""The repository benchmark: fixed EMM verification workloads, measured
end to end and layer by layer (see ``perfbench/README.md``)."""
