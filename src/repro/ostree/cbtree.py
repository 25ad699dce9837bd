"""A counted B-tree: a B-tree with cached subtree sizes.

Supports duplicate keys. All operations are O(log n):

* ``insert(key)`` / ``delete(key)``
* ``kth(k)`` — the k-th smallest element (0-based)
* ``rank(key)`` — number of stored elements strictly smaller than ``key``
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional


class _Node:
    __slots__ = ("keys", "children", "size")

    def __init__(self, keys: Optional[List[Any]] = None,
                 children: Optional[List["_Node"]] = None) -> None:
        self.keys: List[Any] = keys if keys is not None else []
        self.children: Optional[List[_Node]] = children
        self.size = 0
        self.recount()

    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return self.children is None

    def recount(self) -> None:
        """Recompute the cached subtree size from keys and children."""
        self.size = len(self.keys)
        if self.children is not None:
            self.size += sum(child.size for child in self.children)


class CountedBTree:
    """An order statistic tree over comparable keys (duplicates allowed)."""

    def __init__(self, order: int = 16) -> None:
        if order < 4:
            raise ValueError("order must be >= 4")
        self.order = order            # max children per node
        self._max_keys = order - 1
        self._min_keys = (order - 1) // 2
        self.root = _Node()

    def __len__(self) -> int:
        return self.root.size

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, key: Any) -> None:
        """Insert ``key`` (duplicates allowed); O(log n)."""
        root = self.root
        if len(root.keys) == self._max_keys:
            new_root = _Node(keys=[], children=[root])
            self._split_child(new_root, 0)
            self.root = new_root
            root = new_root
        self._insert_nonfull(root, key)

    def _split_child(self, parent: _Node, index: int) -> None:
        node = parent.children[index]
        mid = len(node.keys) // 2
        median = node.keys[mid]
        right = _Node(keys=node.keys[mid + 1:],
                      children=None if node.is_leaf
                      else node.children[mid + 1:])
        node.keys = node.keys[:mid]
        if not node.is_leaf:
            node.children = node.children[:mid + 1]
        node.recount()
        right.recount()
        parent.keys.insert(index, median)
        parent.children.insert(index + 1, right)

    def _insert_nonfull(self, node: _Node, key: Any) -> None:
        node.size += 1
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            child = node.children[index]
            if len(child.keys) == self._max_keys:
                self._split_child(node, index)
                if key >= node.keys[index]:
                    index += 1
                child = node.children[index]
            child.size += 1
            node = child
        # The leaf's size was already incremented on the way down.
        bisect.insort_right(node.keys, key)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, key: Any) -> None:
        """Remove one occurrence of ``key``; raises KeyError if absent."""
        if not self._contains(self.root, key):
            raise KeyError(key)
        self._delete(self.root, key)
        if not self.root.is_leaf and len(self.root.keys) == 0:
            self.root = self.root.children[0]

    def _contains(self, node: _Node, key: Any) -> bool:
        while True:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                return True
            if node.is_leaf:
                return False
            node = node.children[index]

    def _delete(self, node: _Node, key: Any) -> None:
        node.size -= 1
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            if node.is_leaf:
                node.keys.pop(index)
                return
            self._delete_internal(node, index)
            return
        # Key lives in a subtree.
        child = node.children[index]
        if len(child.keys) == self._min_keys:
            child = self._grow_child(node, index, key)
        self._delete(child, key)

    def _delete_internal(self, node: _Node, index: int) -> None:
        key = node.keys[index]
        left, right = node.children[index], node.children[index + 1]
        if len(left.keys) > self._min_keys:
            predecessor = self._max_key(left)
            node.keys[index] = predecessor
            self._delete(left, predecessor)
        elif len(right.keys) > self._min_keys:
            successor = self._min_key(right)
            node.keys[index] = successor
            self._delete(right, successor)
        else:
            self._merge_children(node, index)
            self._delete(node.children[index], key)

    def _grow_child(self, node: _Node, index: int, key: Any) -> _Node:
        """Ensure ``node.children[index]`` has more than min keys; may
        merge, in which case the merged child is returned."""
        child = node.children[index]
        if index > 0 and len(node.children[index - 1].keys) > self._min_keys:
            left = node.children[index - 1]
            child.keys.insert(0, node.keys[index - 1])
            node.keys[index - 1] = left.keys.pop()
            moved = 1
            if not left.is_leaf:
                sub = left.children.pop()
                child.children.insert(0, sub)
                moved += sub.size
            left.size -= moved
            child.size += moved
            return child
        if (index < len(node.children) - 1
                and len(node.children[index + 1].keys) > self._min_keys):
            right = node.children[index + 1]
            child.keys.append(node.keys[index])
            node.keys[index] = right.keys.pop(0)
            moved = 1
            if not right.is_leaf:
                sub = right.children.pop(0)
                child.children.append(sub)
                moved += sub.size
            right.size -= moved
            child.size += moved
            return child
        if index < len(node.children) - 1:
            self._merge_children(node, index)
            return node.children[index]
        self._merge_children(node, index - 1)
        return node.children[index - 1]

    def _merge_children(self, node: _Node, index: int) -> None:
        left, right = node.children[index], node.children[index + 1]
        left.keys.append(node.keys.pop(index))
        left.keys.extend(right.keys)
        if not left.is_leaf:
            left.children.extend(right.children)
        left.size += right.size + 1
        node.children.pop(index + 1)

    def _max_key(self, node: _Node) -> Any:
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1]

    def _min_key(self, node: _Node) -> Any:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    # ------------------------------------------------------------------
    # order statistic queries
    # ------------------------------------------------------------------
    def kth(self, k: int) -> Any:
        """The k-th smallest stored element (0-based)."""
        if not 0 <= k < len(self):
            raise IndexError(f"k={k} out of range for size {len(self)}")
        node = self.root
        while True:
            if node.is_leaf:
                return node.keys[k]
            for index, child in enumerate(node.children):
                if k < child.size:
                    node = child
                    break
                k -= child.size
                if index < len(node.keys):
                    if k == 0:
                        return node.keys[index]
                    k -= 1

    def rank(self, key: Any) -> int:
        """Number of stored elements strictly smaller than ``key``."""
        node = self.root
        total = 0
        while True:
            index = bisect.bisect_left(node.keys, key)
            if node.is_leaf:
                return total + index
            total += index + sum(node.children[i].size for i in range(index))
            node = node.children[index]

    def __iter__(self) -> Iterator[Any]:
        yield from self._iterate(self.root)

    def _iterate(self, node: _Node) -> Iterator[Any]:
        if node.is_leaf:
            yield from node.keys
            return
        for i, key in enumerate(node.keys):
            yield from self._iterate(node.children[i])
            yield key
        yield from self._iterate(node.children[-1])

    def check_invariants(self) -> None:
        """Validate size caches, key ordering and leaf depth.

        Used by tests as an oracle: per-node key
        sortedness and child counts, recursively validated subtree size
        caches, uniform leaf depth (B-trees are perfectly balanced),
        and global sortedness of the full in-order traversal —
        cross-node ordering a corrupted separator key would break even
        when every node is locally sorted.
        """
        leaf_depths = set()

        def visit(node: _Node, depth: int) -> int:
            assert node.keys == sorted(node.keys)
            expected = len(node.keys)
            if node.is_leaf:
                leaf_depths.add(depth)
            else:
                assert len(node.children) == len(node.keys) + 1
                for child in node.children:
                    expected += visit(child, depth + 1)
            assert node.size == expected, (node.size, expected)
            return expected

        total = visit(self.root, 0)
        assert total == len(self), (total, len(self))
        assert len(leaf_depths) <= 1, \
            f"leaves at unequal depths {sorted(leaf_depths)}"
        previous = None
        for key in self:
            assert previous is None or not key < previous, \
                "in-order traversal is not sorted"
            previous = key
