"""URL helpers: hosts, site roots, intra-site tests.

CAFC-CH needs exactly two URL-level notions (Section 3.1 / 3.3):

* the *site* a page belongs to, so intra-site hubs can be discarded
  ("for some form pages, all backlinks belong to the same site as the page
  they point to ... they are eliminated");
* the *root page* of a site, whose backlinks are harvested alongside the
  form page's own ("we also retrieved backlinks to the root page of the
  site where the form is located").
"""

from urllib.parse import urlparse


def host_of(url: str) -> str:
    """The lowercase host of ``url`` ('' when unparseable).

    >>> host_of("http://www.jobs-r-us.com/search?go=1")
    'www.jobs-r-us.com'
    """
    return urlparse(url).netloc.lower()


def site_of(url: str) -> str:
    """A site key for ``url``: the host without a leading ``www.``.

    Good enough for intra-site detection on the corpora this library
    handles; a production system would use the public-suffix list.

    >>> site_of("http://www.jobs-r-us.com/a") == site_of("http://jobs-r-us.com/b")
    True
    """
    host = host_of(url)
    if host.startswith("www."):
        host = host[4:]
    return host


def same_site(url_a: str, url_b: str) -> bool:
    """True when the two URLs live on the same site."""
    site_a = site_of(url_a)
    return bool(site_a) and site_a == site_of(url_b)


def root_url_of(url: str) -> str:
    """The site root page URL ('http://host/').

    >>> root_url_of("http://www.jobs-r-us.com/search/advanced?x=1")
    'http://www.jobs-r-us.com/'
    """
    parsed = urlparse(url)
    scheme = parsed.scheme or "http"
    return f"{scheme}://{parsed.netloc}/"
