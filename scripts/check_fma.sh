#!/bin/sh
# check_fma.sh fails when the repository's own code compiles to a fused
# multiply-add on arm64 or ppc64le. The Go spec lets a compiler fuse x*y + z
# into one instruction with a single rounding; amd64 never does, those two
# architectures do, and the golden files pin scores to 17 significant
# digits. An explicit float64(x*y) conversion forces the product to be
# rounded on its own, so every scoring product is wrapped in one.
#
# Every package's test binary (and every command without tests) is
# cross-compiled, so code reached only from tests is checked as well; no
# emulator is needed. Usage: ./scripts/check_fma.sh
set -eu
cd "$(dirname "$0")/.."
archs="arm64 ppc64le"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

found=0
for arch in $archs; do
	# The frozen benchmark harness (benchmark/) is left out: its own
	# statistics never reach an annotation, and it changes only with the
	# benchmark.
	for pkg in $(go list ./... | grep -v '^aida/benchmark$'); do
		bin="$out/$arch-$(echo "$pkg" | tr / _)"
		GOARCH=$arch go test -c -o "$bin" "$pkg" >/dev/null
		if [ ! -f "$bin" ]; then
			GOARCH=$arch go build -o "$bin" "$pkg"
		fi
		# objdump runs as its own command, so set -e stops the script
		# when it cannot read a binary instead of reporting it clean.
		go tool objdump -s '^aida' "$bin" >"$bin.s"
		if ! grep -q '^TEXT ' "$bin.s"; then
			echo "$arch $pkg: objdump found no aida code to check" >&2
			exit 1
		fi
		fused=$(awk '$1 == "TEXT" { fn = $2 } $4 ~ /^(FMADD|FMSUB|FNMADD|FNMSUB)/ { print "  " $1 "\t" fn }' "$bin.s" | sort -u)
		if [ -n "$fused" ]; then
			echo "$arch $pkg: fused multiply-add at"
			echo "$fused"
			found=1
		fi
	done
done
if [ "$found" -ne 0 ]; then
	echo "wrap each product in float64(...) so it rounds before the add"
	exit 1
fi
echo "no fused multiply-add on $archs"
