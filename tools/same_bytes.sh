#!/usr/bin/env bash
# Check that a change keeps the program's outputs byte for byte.
#
#   tools/same_bytes.sh REV
#
# Runs the same recipes with the source of REV (REV's src/, unpacked with
# git archive under .same_bytes/) and with the working tree's source, then
# compares their outputs with cmp.  Exits 0 when every output is the same,
# 1 when any differs.
#
# The recipes:
#   - synth the c6 scene (4 objects, 40 frames, seed 800, object 1 leaves
#     at frame 15, one enters at 25) and train on it: 500 steps, batch 4,
#     trainer seed 0.  Compared: the model file and the loss log.
#   - synth CI's ragged recipe (5 objects, 30 frames, seed 31, an object
#     leaves and one enters, misses and admitted clutter: frames of 3 to 9
#     detections, 173 in all) and train on it: 500 steps, trainer seed 1.
#     The trainer reads the tracker's windows of up to 64 detections, so
#     this scene's features come from three windows split mid-sequence,
#     unlabeled rows among them.  Compared: its model file and loss log.
#   - track, with that model, one paper5_noisy-recipe scene and one
#     dense80-recipe scene (the bench's first scenes at run seed 1), and
#     three of CI's recipes: short (12 points per object, so every crop
#     is padded to the featurizer's minimum of 16 points), empty (admitted
#     clutter whose boxes hold no points, next to full crops) and mix (each
#     window holds empty crops, crops padded to 16 points and longer ones).
#     The tracker featurizes a window of frames per call, so these compare
#     crops of every kind within one call.  Compared: the tracks CSVs.
#
# Model files and loss logs depend on the BLAS summation order, so they
# are compared between two trees on one machine, not pinned in tests.
# Set PYTHON to choose the interpreter (default: python3).
set -euo pipefail

rev=${1:?usage: tools/same_bytes.sh REV}
root=$(git rev-parse --show-toplevel)
work=$root/.same_bytes
python=${PYTHON:-python3}
scenes=(paper5 dense80 short empty mix)
outputs=(model.bin loss.csv model-ragged.bin loss-ragged.csv tracks-paper5.csv
    tracks-dense80.csv tracks-short.csv tracks-empty.csv tracks-mix.csv)

rm -rf "$work"
mkdir -p "$work/rev"
trap 'rm -rf "$work"' EXIT
git -C "$root" archive "$rev" src | tar -x -C "$work/rev"

# run_recipes SRC OUT: every recipe with the package under SRC, outputs in OUT
run_recipes() {
    local src=$1 out=$2
    mkdir -p "$out"
    cloudtrack() { PYTHONPATH="$src" "$python" -m cloudtrack.cli "$@" > /dev/null; }
    cloudtrack synth --out "$out/c6" --objects 4 --frames 40 --seed 800 \
        --leave 15:1 --enter 25
    cloudtrack train --seq "$out/c6" --out "$out/model.bin" --log "$out/loss.csv" \
        --steps 500 --batch-pairs 4 --seed 0
    cloudtrack synth --out "$out/ragged" --objects 5 --frames 30 --seed 31 \
        --points-per-object 60 --leave 12:1 --enter 20 --fn-rate 0.2 --fp-rate 0.5 \
        --conf-lo 0.3 --conf-hi 0.9
    cloudtrack train --seq "$out/ragged" --out "$out/model-ragged.bin" \
        --log "$out/loss-ragged.csv" --steps 500 --seed 1
    cloudtrack synth --out "$out/paper5" --objects 5 --frames 30 --seed 1189033389 \
        --leave 10:2 --enter 18 --det-noise-sigma 0.05 --fn-rate 0.1 --fp-rate 0.3 \
        --conf-lo 0.0 --conf-hi 0.4
    cloudtrack synth --out "$out/dense80" --objects 80 --frames 20 --seed 1596810411 \
        --arena 100 100
    cloudtrack synth --out "$out/short" --objects 6 --frames 10 --seed 5 \
        --points-per-object 12
    cloudtrack synth --out "$out/empty" --objects 6 --frames 12 --seed 6 \
        --points-per-object 60 --fn-rate 0.1 --fp-rate 0.3 --conf-lo 0.5 --conf-hi 0.9
    cloudtrack synth --out "$out/mix" --objects 6 --frames 20 --seed 10 \
        --points-per-object 20 --det-noise-sigma 0.1 --fp-rate 0.3 --conf-lo 0.5 \
        --conf-hi 0.9
    for scene in "${scenes[@]}"; do
        cloudtrack track --seq "$out/$scene" --weights "$out/model.bin" \
            --out "$out/tracks-$scene.csv"
    done
}

echo "running the recipes at $rev"
run_recipes "$work/rev/src" "$work/out-rev"
echo "running the recipes in the working tree"
run_recipes "$root/src" "$work/out-tree"

status=0
for name in "${outputs[@]}"; do
    if cmp -s "$work/out-rev/$name" "$work/out-tree/$name"; then
        echo "same     $name  $(sha256sum < "$work/out-tree/$name" | cut -c1-16)"
    else
        echo "DIFFERS  $name"
        status=1
    fi
done
exit $status
