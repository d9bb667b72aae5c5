"""A minimal DOM for parsed HTML.

Only what the form-page model needs: an element tree with tag names,
attributes, text nodes, and simple traversal/search helpers.
"""

from typing import Callable, Dict, Iterator, List, Optional


class Node:
    """Base class for DOM nodes."""

    parent: Optional["Element"]

    def __init__(self) -> None:
        self.parent = None

    def text_content(self) -> str:
        """All descendant text, concatenated with spaces."""
        raise NotImplementedError


class Text(Node):
    """A text node."""

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:
        preview = self.data.strip()[:30]
        return f"Text({preview!r})"


class Element(Node):
    """An element node with a tag, attributes and children."""

    def __init__(self, tag: str, attrs: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attrs: Dict[str, str] = dict(attrs or {})
        self.children: List[Node] = []

    # ----------------------------------------------------------------
    # Construction.
    # ----------------------------------------------------------------

    def append(self, node: Node) -> None:
        """Append ``node`` as the last child."""
        node.parent = self
        self.children.append(node)

    # ----------------------------------------------------------------
    # Attributes.
    # ----------------------------------------------------------------

    def get(self, name: str, default: str = "") -> str:
        """Return attribute ``name`` (case-insensitive), or ``default``."""
        return self.attrs.get(name.lower(), default)

    # ----------------------------------------------------------------
    # Traversal.
    # ----------------------------------------------------------------

    def iter_nodes(
        self, prune: Optional[Callable[["Element"], bool]] = None
    ) -> Iterator[Node]:
        """Yield this element and every descendant node, document order.

        The children of an element for which ``prune`` is true are
        skipped.  The walk keeps its own stack, so no depth of nesting
        recurses.
        """
        yield self
        if prune is not None and prune(self):
            return
        stack = [iter(self.children)]
        while stack:
            for node in stack[-1]:
                yield node
                if (isinstance(node, Element) and node.children
                        and not (prune is not None and prune(node))):
                    stack.append(iter(node.children))
                    break
            else:
                stack.pop()

    def iter(self) -> Iterator["Element"]:
        """Yield this element and every descendant element, pre-order."""
        for node in self.iter_nodes():
            if isinstance(node, Element):
                yield node

    def iter_text_nodes(self) -> Iterator[Text]:
        """Yield every descendant text node, document order."""
        for node in self.iter_nodes():
            if isinstance(node, Text):
                yield node

    def find_all(self, tag: str) -> List["Element"]:
        """All descendant elements (including self) with tag ``tag``."""
        tag = tag.lower()
        return [el for el in self.iter() if el.tag == tag]

    def find(self, tag: str) -> Optional["Element"]:
        """First descendant element (including self) with tag ``tag``."""
        tag = tag.lower()
        for el in self.iter():
            if el.tag == tag:
                return el
        return None

    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestor elements, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def has_ancestor(self, tag: str) -> bool:
        """True if any ancestor has tag ``tag``."""
        tag = tag.lower()
        return any(anc.tag == tag for anc in self.ancestors())

    # ----------------------------------------------------------------
    # Text.
    # ----------------------------------------------------------------

    def text_content(self) -> str:
        # Joining each child's non-empty text with spaces, all the way
        # down, is joining every non-empty text node with spaces.
        return " ".join([node.data for node in self.iter_text_nodes() if node.data])

    def __repr__(self) -> str:
        return f"Element(<{self.tag}> children={len(self.children)})"


# Tags whose content is never visible text.
NON_VISIBLE_TAGS = frozenset({"script", "style", "noscript", "template", "head"})

# Void (self-closing) HTML tags; the parser never pushes these on the stack.
VOID_TAGS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

# Elements that implicitly close an open element of the same tag.  Real web
# pages (especially 2000s-era ones the paper crawled) rarely close these.
SELF_NESTING_CLOSERS = frozenset({"p", "li", "option", "tr", "td", "th", "dt", "dd"})
