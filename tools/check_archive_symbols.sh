#!/bin/sh
# Fails when a global or weak symbol is defined in more than one member of
# a static archive; given member stems, only when one of those members is
# among the definers.
#
#   sh tools/check_archive_symbols.sh <nm> <archive.a> [stem...]
#
# The SIMD kernel files of libdnc_blas.a are built with different -m flags.
# A template from a shared body header, instantiated with the same
# arguments in two of them, is a weak symbol in each; the linker keeps one
# copy, which can carry AVX2 code into the scalar path. Keeping every
# per-ISA vector interface in an anonymous namespace gives those
# instantiations internal linkage; this check fails when one escapes.
# Unoptimised builds also emit out-of-line copies of inline library
# functions (std::min, std::fabs) in every member that calls them, the
# same hazard. Without stems the check covers every member and is meant
# for the optimised build types: the baseline members share such copies
# harmlessly at -O0. With the ISA-flagged members' stems (kernels_avx2 for
# kernels_avx2.cpp.o, ...) it holds in every build type.
set -eu
nm_tool=$1
archive=$2
shift 2
stems=" $* "

# POSIX nm lines: "<archive>[<member>]: <name> <type> <value> <size>".
# Upper-case types other than U are global definitions (W/V weak), u is a
# GNU unique global.
defs=$("$nm_tool" -A -P --defined-only "$archive" |
  awk '$3 ~ /^([A-TV-Z]|u)$/ {
         member = $1; sub(/^.*\[/, "", member); sub(/\]:$/, "", member)
         print $2, member
       }' | sort -u)
if [ -z "$defs" ]; then
  echo "no global symbols found in $archive" >&2
  exit 1
fi
dups=$(printf '%s\n' "$defs" |
  awk -v stems="$stems" '
    { n[$1]++; m[$1] = m[$1] " " $2 }
    END {
      for (s in n) {
        if (n[s] < 2) continue
        hit = stems == "  "
        k = split(m[s], mem, " ")
        for (i = 1; i <= k; i++) {
          stem = mem[i]; sub(/\..*$/, "", stem)
          if (index(stems, " " stem " ")) hit = 1
        }
        if (hit) print s ":" m[s]
      }
    }')
if [ -n "$dups" ]; then
  echo "symbols defined in more than one member of $archive:" >&2
  printf '%s\n' "$dups" >&2
  exit 1
fi
if [ "$stems" = "  " ]; then
  echo "$(printf '%s\n' "$defs" | wc -l) global symbols, each defined in one member"
else
  echo "no global symbol of${stems}defined in another member"
fi
