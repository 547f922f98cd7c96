"""Inside the path index: candidate branch nodes, counts, removal, undo.

Before searching, the matcher enumerates every simple data path whose
length falls in [l, h] and whose two ends are candidate branch nodes
(data vertices that some pattern vertex could map to).  The index keeps
per-pair path lists and counts; the search prunes it by deactivating
paths and rolls back through undo tokens while backtracking.
"""

from homeomatch import (
    CompatibleMatrix,
    candidate_branch_nodes,
    enumerate_paths,
    parse_graph,
)

pattern = parse_graph(
    "n 4 m 5\nv 1 a\nv 2 b\nv 3 c\nv 4 d\n"
    "e 1 2\ne 1 3\ne 1 4\ne 2 3\ne 3 4\n")
data = parse_graph(
    "n 9 m 11\nv 1 b\nv 2 a\nv 3 d\nv 4 d\nv 5 a\nv 6 c\nv 7 b\nv 8 b\nv 9 x\n"
    "e 1 2\ne 1 8\ne 2 3\ne 2 9\ne 3 4\ne 4 5\ne 5 6\ne 6 7\ne 6 9\ne 7 8\ne 8 9\n")

print("--- candidate branch nodes ---")
m0 = CompatibleMatrix.initial(pattern, data)
for i in pattern.vertices:
    print(f"pattern vertex {i} (label {pattern.label(i)}) may map to", sorted(m0.rows[i]))
cands = candidate_branch_nodes(m0)
print("candidate branch nodes:", cands)
print("vertices 5 and 9 are excluded (degree filter / unmatched label),")
print("yet paths passing through them still matter and stay indexed.")

print("\n--- enumerating (2,2) paths between candidates ---")
store = enumerate_paths(data, cands, 2, 2)
print(f"{len(store)} paths stored; the full table:")
print(store.dump())

print("paths between 2 and 8:", store.path_count(2, 8))

print("\n--- removal with undo ---")
token = store.remove_paths_through_vertex(8)
print(f"deactivating paths through vertex 8 killed {len(token.killed)} paths")
print("paths between 2 and 8 now:", store.path_count(2, 8),
      "(untouched: 8 is an end there, not an inner vertex)")
print("paths between 1 and 7 now:", store.path_count(1, 7))

store.undo(token)
print("after undo, 1-7 count is back to:", store.path_count(1, 7))

print("\n--- committing a path excludes everything it blocks ---")
(p296,) = [p for p in store.alive_between(2, 6)]
print("committing", store.vertices(p296))
token = store.remove_paths_conflicting_with(p296)
for pid in token.killed:
    print("  conflict removed:", store.vertices(pid))
store.undo(token)
print("undo restores the store exactly:", store.path_count(2, 8) == 2)
